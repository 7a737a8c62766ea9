"""Binary checkpoints with byte-exact round trips.

Layout (all integers little-endian):

    magic "AKGP1"
    u32 length + UTF-8 JSON config snapshot
    u32 tensor count, then tensor records
    u32 optimizer buffer count, then records in the same shape
    u64 stage, u64 epochs_done, u64 adam_t
    u32 generator word count, then u64 words

A record is: u32 name length, name bytes, u32 rank, one u64 per dim, then
the row-major float64 payload. Saving the result of a load reproduces the
original file byte for byte.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"AKGP1"
_MAX_RANK = 8
_MAX_DIM = 1 << 32
_MAX_ELEMENTS = 1 << 28  # 2 GiB of float64 payload


class CheckpointError(ValueError):
    """Checkpoint file is unreadable."""


class BadMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class TruncatedCheckpointError(CheckpointError):
    """File ended before a complete structure could be read."""


class DimOverflowError(CheckpointError):
    """A recorded tensor declares an implausibly large shape."""


@dataclass
class CheckpointData:
    config: dict
    tensors: dict[str, np.ndarray]
    opt_buffers: dict[str, np.ndarray]
    stage: int
    epochs_done: int
    adam_t: int
    rng_state: tuple[int, ...]


def _write_record(fh, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", array.ndim))
    for dim in array.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def save_checkpoint(path, config_json: str, tensors: dict[str, np.ndarray],
                    opt_buffers: dict[str, np.ndarray], stage: int,
                    epochs_done: int, adam_t: int,
                    rng_state: tuple[int, ...]) -> None:
    """Write the checkpoint to a temporary file beside ``path``, sync it, then
    rename it over ``path``: an interrupted save leaves the previous file."""
    tmp_path = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(MAGIC)
            raw = config_json.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", len(tensors)))
            for name, array in tensors.items():
                _write_record(fh, name, array)
            fh.write(struct.pack("<I", len(opt_buffers)))
            for name, array in opt_buffers.items():
                _write_record(fh, name, array)
            fh.write(struct.pack("<QQQ", stage, epochs_done, adam_t))
            fh.write(struct.pack("<I", len(rng_state)))
            for word in rng_state:
                fh.write(struct.pack("<Q", word))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


class _Source:
    """The unread bytes of an open checkpoint file, counted in ``left``."""

    def __init__(self, fh):
        self._fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def read(self, n: int) -> bytes:
        raw = self._fh.read(n)
        self.left -= len(raw)
        return raw


def _read_exact(src: _Source, n: int, what: str) -> bytes:
    # a corrupt length is refused before it can ask for more than the file holds
    raw = src.read(n) if n <= src.left else b""
    if len(raw) != n:
        raise TruncatedCheckpointError(f"file ended while reading {what}")
    return raw


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not valid UTF-8: {exc}") from exc


def _read_record(src: _Source) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(src, 4, "record name length"))
    name = _decode(_read_exact(src, name_len, "record name"), "record name")
    (rank,) = struct.unpack("<I", _read_exact(src, 4, f"rank of {name}"))
    if rank > _MAX_RANK:
        raise DimOverflowError(f"tensor {name} declares rank {rank}")
    dims = []
    total = 1
    for _ in range(rank):
        (dim,) = struct.unpack("<Q", _read_exact(src, 8, f"dims of {name}"))
        if dim > _MAX_DIM:
            raise DimOverflowError(f"tensor {name} declares dimension {dim}")
        dims.append(dim)
        total *= dim
    if total > _MAX_ELEMENTS:
        raise DimOverflowError(f"tensor {name} declares {total} elements")
    payload = _read_exact(src, total * 8, f"payload of {name}")
    array = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
    return name, array


def load_checkpoint(path) -> CheckpointData:
    """Parse a checkpoint file; any malformed content raises CheckpointError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        src = _Source(fh)
        (cfg_len,) = struct.unpack("<I", _read_exact(src, 4, "config length"))
        snapshot = _decode(_read_exact(src, cfg_len, "config snapshot"), "config snapshot")
        try:
            config = json.loads(snapshot)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"config snapshot is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise CheckpointError("config snapshot is not a JSON object")

        tensors: dict[str, np.ndarray] = {}
        (n_tensors,) = struct.unpack("<I", _read_exact(src, 4, "tensor count"))
        for _ in range(n_tensors):
            name, array = _read_record(src)
            tensors[name] = array

        opt_buffers: dict[str, np.ndarray] = {}
        (n_buffers,) = struct.unpack("<I", _read_exact(src, 4, "optimizer buffer count"))
        for _ in range(n_buffers):
            name, array = _read_record(src)
            opt_buffers[name] = array

        stage, epochs_done, adam_t = struct.unpack("<QQQ", _read_exact(src, 24, "counters"))
        (n_words,) = struct.unpack("<I", _read_exact(src, 4, "generator state size"))
        words = struct.unpack(f"<{n_words}Q", _read_exact(src, 8 * n_words, "generator state"))
        if src.left:
            raise CheckpointError("trailing bytes after checkpoint payload")
    return CheckpointData(config=config, tensors=tensors, opt_buffers=opt_buffers,
                          stage=stage, epochs_done=epochs_done, adam_t=adam_t,
                          rng_state=tuple(words))
