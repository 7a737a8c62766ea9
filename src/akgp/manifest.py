"""Run manifests: enough provenance to re-run any command.

Every artifact-producing invocation writes one ``manifest.json`` next to
its outputs, recording the command, the fully resolved configuration, the
SHA-256 hex digest of each input file, the produced files, the seed, and
elapsed wall-clock time (the single non-deterministic field). The digest
is the one ``sha256sum`` prints; earlier manifests recorded a 16-character
64-bit FNV-1a hex digest instead.
"""

from __future__ import annotations

import hashlib
import json
import os


def digest_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(out_dir, command: str, config_dict: dict,
                   inputs: dict[str, str], outputs: list[str], seed: int,
                   wall_clock_seconds: float) -> str:
    record = {
        "command": command,
        "config": config_dict,
        "inputs": {str(path): digest_file(path) for path in inputs.values() if path},
        "outputs": sorted(outputs),
        "seed": seed,
        "wall_clock_seconds": wall_clock_seconds,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
