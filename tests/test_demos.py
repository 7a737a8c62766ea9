"""The demos run to completion against the current API.

``04_ablation_benchmark.py`` is left out: it takes about 10 s, and
criterion 4 of the acceptance suite already runs the ablation.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = [
    "01_autodiff_and_gradient_checking.py",
    "02_knowledge_graph_and_retrieval.py",
    "03_two_stage_training.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
