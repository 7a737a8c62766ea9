"""SHA-256 input digests and manifest records."""

import json
import os
import platform

import numpy as np

import akgp
from akgp.config import TrainConfig
from akgp.manifest import digest_file, write_manifest


def test_digest_file_is_sha256_hex(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"foobar")
    assert digest_file(path) == (
        "c3ab8ff13720e8ad9047dd39466b3c8974e592c2fa383d4a3960714caef0c4f2")


def test_write_manifest_record(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    inputs = {"kg": tmp_path / "kg.tsv"}
    inputs["kg"].write_text("a\tr\tb\n")
    path = write_manifest(tmp_path, "pretrain", TrainConfig(lr=0.001, seed=7),
                          [str(inputs["kg"]), None], ["checkpoint.akgp"],
                          wall_clock_seconds=1.5)
    record = json.loads(open(path).read())
    assert record["command"] == "pretrain"
    assert record["seed"] == 7
    assert record["outputs"] == ["checkpoint.akgp"]
    assert list(record["inputs"].values())[0] == digest_file(inputs["kg"])
    assert record["config"]["lr"] == 0.001
    env = record["environment"]
    assert env["akgp"] == akgp.__version__
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["system"] == platform.system()
    assert env["machine"] == platform.machine()
    assert 1 <= env["usable_cores"] <= os.cpu_count()
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
