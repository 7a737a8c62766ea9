"""Run manifests: enough provenance to re-run any command.

Every artifact-producing invocation writes one ``manifest.json`` next to
its outputs, recording the command, the fully resolved configuration, the
SHA-256 hex digest of each input file, the produced files, the seed, the
environment, and elapsed wall-clock time (the one field that differs
between identical runs on one host). The digest is the one ``sha256sum``
prints; earlier manifests recorded a 16-character 64-bit FNV-1a hex digest
instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform

import numpy as np

from . import __version__
from .config import TrainConfig

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def environment() -> dict:
    """The versions and host a run's outputs and timings rest on. The
    kernels' bits follow numpy's summation order, so the numpy version is
    part of a run's provenance. ``platform.platform()`` is not called: it
    reads the interpreter binary to find the libc version, which costs
    milliseconds."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # macOS and Windows: every core is usable
        cores = os.cpu_count()
    return {
        "akgp": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
        "usable_cores": cores,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def write_manifest(out_dir, command: str, cfg: TrainConfig, inputs: list,
                   outputs: list[str], wall_clock_seconds: float) -> str:
    """Write ``manifest.json`` into ``out_dir``: the paths in ``inputs`` that
    are set are digested, and ``cfg`` gives the config and the seed."""
    record = {
        "command": command,
        "config": cfg.to_dict(),
        "environment": environment(),
        "inputs": {str(path): digest_file(path) for path in inputs if path},
        "outputs": sorted(outputs),
        "seed": cfg.seed,
        "wall_clock_seconds": wall_clock_seconds,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
