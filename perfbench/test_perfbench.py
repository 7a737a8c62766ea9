"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import akgp.cli  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def runner(tmp_path):
    return workloads.Runner(str(tmp_path))


def test_serve_checks_pass_and_oracle_rejects_perturbed_retrieve_line(runner):
    serve = workloads.Serve10k()
    serve.n_entities, serve.n_queries = 30, 40
    serve.prepare(runner, seed=3)
    serve.round(runner)
    assert runner.failed == 0, runner.errors

    inputs = ["--config", serve.cfg, "--kg", serve.kg, "--data", serve.data,
              "--checkpoint", serve.checkpoint]
    _, text = runner.cli("retrieve", *inputs)
    lines = text.splitlines()
    record = json.loads(lines[7])
    swapped = lines[:]
    swapped[7], swapped[8] = swapped[8], swapped[7]
    nudged = lines[:]
    nudged[7] = json.dumps(dict(record, similarity=record["similarity"] + 1e-6))
    renamed = lines[:]
    renamed[7] = json.dumps(dict(record, node_id="attribute_0"))
    for bad in (swapped, nudged, renamed, lines[:-1]):
        before = runner.failed
        workloads.check_retrieve_lines(runner, "\n".join(bad) + "\n",
                                       serve.expected_ids, serve.expected_sims)
        assert runner.failed > before


def test_oracle_breaks_ties_toward_the_lowest_index():
    import numpy as np

    knowledge = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    order, sims = workloads.topk_oracle(np.array([[3.0, 0.0]]), knowledge, 4)
    assert order.tolist() == [[0, 2, 4, 1]]
    assert sims.tolist() == [[1.0, 1.0, 1.0, 0.0]]


def test_traced_and_untraced_ablation_agree_and_wrappers_are_removed(runner, monkeypatch):
    monkeypatch.setenv("AKGP_THREADS", "2")
    ablate = workloads.AblateDefault()
    ablate.prepare(runner, seed=5)
    csv_path = runner.path("ablate", "ablation.csv")

    ablate.round(runner)
    with open(csv_path, "rb") as fh:
        untraced = fh.read()

    targets = [(mod, attr) for _, pairs, _ in spans.SPAN_TARGETS for mod, attr in pairs]
    targets += [target for _, target, _ in spans.COUNT_TARGETS]

    def current():
        import importlib

        found = []
        for mod, path in targets:
            owner = importlib.import_module(mod)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            found.append(owner.__dict__[attr])
        return found

    originals = current()
    with spans.Tracer() as tracer:
        assert all(now is not was for now, was in zip(current(), originals))
        ablate.round(runner)
    assert all(now is was for now, was in zip(current(), originals))
    with open(csv_path, "rb") as fh:
        assert fh.read() == untraced
    assert runner.failed == 0, runner.errors

    stats = tracer.stats()
    assert tracer.absent == []
    assert stats["synthbench.run_cell.calls"] == ablate.cells
    assert stats["cli.main.calls"] == 3
    assert 0.9 < stats["trace.coverage"] <= 1.0
    # one trace per CLI command and per ablation cell
    assert len({span[4] for span in tracer.spans()}) == 3 + ablate.cells


def test_wrappers_are_removed_when_a_traced_command_raises():
    original = akgp.cli.main
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert akgp.cli.main is original


def test_metric_lists_match_benchmark_json():
    spec = load_benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def test_interleave_follows_the_shares_and_takes_the_fewest_samples():
    clock = [0.0]

    def step(cost):
        def call():
            clock[0] += cost
            return cost
        return call

    steps = {"a": step(1.0), "b": step(0.25), "c": step(5.0)}
    shares = {"a": 0.5, "b": 0.25, "c": 0.25}
    original = bench.time.perf_counter
    bench.time.perf_counter = lambda: clock[0]
    try:
        results = bench.interleave(steps, shares, seconds=40.0, at_least=3)
    finally:
        bench.time.perf_counter = original
    assert len(results["c"]) == 3  # 15 s, past its share, for the minimum
    assert 15 <= len(results["a"]) <= 19 and 30 <= len(results["b"]) <= 36
    assert clock[0] <= 40.0


def result_line(args, cwd):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    code, lines = result_line(["--workload", "train-3k", "--seed", "2", "--seconds", "0",
                               "--trace", str(trace)], ROOT)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = [(m["name"], m["unit"]) for m in load_benchmark_json()[key]]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    for name, unit in expected:
        assert f"  {name} " in "\n".join(lines[:-1])


def test_fails_without_akgp_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = result_line(["--workload", "ablate-default", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert code != 0
    assert lines == []
