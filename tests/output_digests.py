"""Print the sha256 of every output of two regenerated worlds.

Usage, from any directory::

    python tests/output_digests.py [--keep DIR]

The script imports the akgp package from the ``src`` directory next to its
own ``tests`` directory, so a copy of it placed in another checkout hashes
that checkout. Each world is generated with ``akgp gen-data``, pretrained,
fine-tuned from the pretraining checkpoint, evaluated and queried with
``akgp retrieve`` on its whole dataset, all through ``akgp.cli.main`` in
this process; the default world also runs ``akgp ablate --seed 0``. One
line per output is printed: the world, the output and its sha256. Two
checkouts whose lines are equal produce byte-identical outputs.

The ablation runs a second time on one usable core, where the calling
process runs every unit itself; the script exits 1 if that run's
``ablation.csv`` differs from the first run's, on every usable core.

The outputs' bits depend on the numpy version and, for the 3k world, on
the number of BLAS threads, so both are printed first, to standard error,
as one JSON line (from ``akgp.manifest.environment()``). Compare two
checkouts' lines only when these agree.

The file name does not start with ``test_``, so pytest does not collect it.
It needs only the standard library and akgp's own dependencies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from akgp import cli  # noqa: E402
from akgp.manifest import environment  # noqa: E402

WORLDS = [
    ("default", {}, True),
    ("3k", {"seed": 7, "vocab_size": 3014, "pretrain_epochs": 1, "finetune_epochs": 3,
            "world": {"seed": 7, "n_entities": 3000, "n_examples": 512}}, False),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _run(argv: list[str]) -> bytes:
    """Standard output of one akgp command; a non-zero exit stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"akgp {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def world_digests(root: str, config: dict, ablate: bool):
    """(output name, sha256) of every output of one world under ``root``."""
    cfg = os.path.join(root, "config.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    data_dir = os.path.join(root, "data")
    _run(["gen-data", "--config", cfg, "--out", data_dir])
    kg, data = os.path.join(data_dir, "kg.tsv"), os.path.join(data_dir, "dataset.jsonl")
    inputs = ["--config", cfg, "--kg", kg, "--data", data]
    pre, fine = os.path.join(root, "pretrain"), os.path.join(root, "finetune")
    _run(["pretrain", *inputs, "--out", pre])
    pre_ckpt = os.path.join(pre, "checkpoint.akgp")
    _run(["finetune", *inputs, "--out", fine, "--checkpoint", pre_ckpt])
    fine_ckpt = os.path.join(fine, "checkpoint.akgp")
    yield "pretrain checkpoint", _file_digest(pre_ckpt)
    yield "pretrain run log", _file_digest(os.path.join(pre, "run_log.jsonl"))
    yield "finetune checkpoint", _file_digest(fine_ckpt)
    yield "finetune run log", _file_digest(os.path.join(fine, "run_log.jsonl"))
    yield "eval output", _sha256(_run(["eval", *inputs, "--checkpoint", fine_ckpt]))
    yield "retrieve output", _sha256(_run(["retrieve", *inputs, "--checkpoint", fine_ckpt]))
    if ablate:
        out, serial = os.path.join(root, "ablate"), os.path.join(root, "ablate_one_core")
        _run(["ablate", *inputs, "--out", out, "--seed", "0"])
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            _run(["ablate", *inputs, "--out", serial, "--seed", "0"])
        digest = _file_digest(os.path.join(out, "ablation.csv"))
        if _file_digest(os.path.join(serial, "ablation.csv")) != digest:
            raise SystemExit("ablation.csv differs between one usable core and all of them")
        yield "ablation.csv", digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", help="write the outputs here instead of a "
                                       "temporary directory, and keep them")
    args = parser.parse_args(argv)
    env = environment()
    print(json.dumps({key: env[key] for key in ("numpy", "blas_threads")}, sort_keys=True),
          file=sys.stderr, flush=True)
    with contextlib.ExitStack() as stack:
        base = args.keep or stack.enter_context(tempfile.TemporaryDirectory())
        for name, config, ablate in WORLDS:
            root = os.path.join(base, name)
            os.makedirs(root, exist_ok=True)
            for output, digest in world_digests(root, config, ablate):
                print(f"{name:8s} {output:20s} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
