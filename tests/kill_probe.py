"""Kill training and ablation runs at random times and check that they
recover: a resumed run reproduces the straight one, and no forked child
outlives its caller.

Usage, from any directory::

    python tests/kill_probe.py [--trials N] [--seed S]

The script runs ``akgp`` commands, in child processes, from the ``src``
directory next to its own ``tests`` directory, so a copy of it placed in
another checkout probes that checkout. The world is that of the tests'
tiny config (7 knowledge nodes, 60 examples), trained for more epochs so
that a kill often lands mid-training. First come the straight runs:
``gen-data``, ``pretrain``, ``finetune`` from the pretraining checkpoint,
and ``ablate``. Then each trial starts one command, sends it SIGKILL,
SIGTERM or SIGINT at a time drawn uniformly from the straight run's wall
time, and recovers:

- ``pretrain``: re-run with ``--resume``; or, if the run saved no
  checkpoint, afresh in an emptied directory (there is nothing to resume).
- ``finetune --resume``: fine-tune half the epochs, kill the run resumed to
  the full budget, and resume it again.
- ``ablate``: re-run it in the same directory.

The checkpoint and run log of a trained run, or ``ablation.csv`` and
``ablation.md``, must then equal the straight run's byte for byte. Every
command starts in its own session, and every process left in that session
once the killed command has exited must exit within a few seconds:
``ablate`` runs with two usable cores, so one share of its units runs in a
forked child. The trials run one after another, so at most one caller and
one child are alive at once. The (command, signal) pairs are dealt in a
shuffled order drawn from ``--seed``, so nine trials cover all nine.

One line per trial is printed, and a summary; the script exits 1 if any
trial fails. It reads ``/proc`` to find a session's processes, so it runs
on Linux only. The file name does not start with ``test_``, so pytest does
not collect it. It needs only the standard library and akgp's own
dependencies.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the world of TINY in tests/test_cli.py, with more epochs
CONFIG = {
    "world": {"n_entities": 5, "n_attributes": 2, "n_examples": 60, "seed": 4},
    "vocab_size": 19, "n_classes": 2, "d_i": 6, "d_m": 10, "d_t": 6,
    "d_k": 6, "d_h": 8, "d_a": 8, "n_negatives": 3,
    "pretrain_epochs": 60, "finetune_epochs": 60, "batch_size": 16,
}

# akgp's entry point, seeing two usable cores whatever the host has
LAUNCHER = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from akgp.cli import main; sys.exit(main(sys.argv[1:]))")

SIGNALS = {"SIGKILL": signal.SIGKILL, "SIGTERM": signal.SIGTERM, "SIGINT": signal.SIGINT}
COMMANDS = ["pretrain", "finetune --resume", "ablate"]
TRAINED_OUTPUTS = ["checkpoint.akgp", "run_log.jsonl"]
ABLATION_OUTPUTS = ["ablation.csv", "ablation.md"]
ORPHAN_GRACE_S = 5.0


class ProbeFailure(Exception):
    pass


def _start(args: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, "-c", LAUNCHER, *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)


def _session_members(session: int) -> list[int]:
    """Pids of the processes in ``session`` that have not exited."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # it exited while the directory was read
            continue
        # fields after the name: state, ppid, process group, session
        if int(fields[3]) == session and fields[0] not in ("Z", "X"):
            members.append(int(name))
    return members


def _wait_for_session(proc: subprocess.Popen) -> None:
    """Wait until no process of the exited ``proc``'s session is left, or
    kill them all and fail after ``ORPHAN_GRACE_S`` seconds."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while members := _session_members(proc.pid):
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            raise ProbeFailure(f"processes {members} outlived their caller {proc.pid}")
        time.sleep(0.05)


def run(args: list[str]) -> float:
    """Run one akgp command to completion; its wall time in seconds."""
    started = time.perf_counter()
    proc = _start(args)
    _, err = proc.communicate()
    _wait_for_session(proc)
    if proc.returncode != 0:
        raise ProbeFailure(f"akgp {' '.join(args)} exited {proc.returncode}: {err.decode()}")
    return time.perf_counter() - started


def run_killed(args: list[str], signal_number: int, after_s: float) -> int:
    """Start one akgp command, send it ``signal_number`` after ``after_s``
    seconds unless it has exited, and return its exit status."""
    proc = _start(args)
    try:
        proc.wait(timeout=after_s)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal_number)
    proc.communicate()
    _wait_for_session(proc)
    return proc.returncode


def _same_files(got_dir: str, want_dir: str, names: list[str]) -> None:
    for name in names:
        with open(os.path.join(got_dir, name), "rb") as got, \
                open(os.path.join(want_dir, name), "rb") as want:
            if got.read() != want.read():
                raise ProbeFailure(f"{name} differs from the straight run's")


class Probe:
    """The straight runs, in ``root``, and the trials that are compared with them."""

    def __init__(self, root: str):
        self.root = root
        self.config = self._write_config("config.json", CONFIG)
        self.half_config = self._write_config(
            "half.json", dict(CONFIG, finetune_epochs=CONFIG["finetune_epochs"] // 2))
        world = os.path.join(root, "world")
        run(["gen-data", "--config", self.config, "--out", world])
        self.inputs = ["--kg", os.path.join(world, "kg.tsv"),
                       "--data", os.path.join(world, "dataset.jsonl")]
        self.straight = os.path.join(root, "straight")
        self.pretrained = os.path.join(self.straight, "pretrain", "checkpoint.akgp")
        self.seconds = {
            "pretrain": run(self._args("pretrain", self.config, "straight/pretrain")),
            "finetune --resume": run(self._args("finetune", self.config, "straight/finetune",
                                                "--checkpoint", self.pretrained)),
            "ablate": run(self._args("ablate", self.config, "straight/ablate")),
        }

    def _write_config(self, name: str, config: dict) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def _args(self, command: str, config: str, out: str, *extra: str) -> list[str]:
        return [command, "--config", config, *self.inputs,
                "--out", os.path.join(self.root, out), *extra]

    def trial(self, k: int, command: str, signal_name: str, rng: random.Random) -> str:
        """Run one trial; a line that describes it. Raises ProbeFailure."""
        after_s = rng.uniform(0.0, self.seconds[command])
        out = f"trial-{k}"
        out_dir = os.path.join(self.root, out)
        kill = SIGNALS[signal_name]
        if command == "pretrain":
            status = run_killed(self._args("pretrain", self.config, out), kill, after_s)
            if os.path.exists(os.path.join(out_dir, "checkpoint.akgp")):
                recovery = "resumed"
                run(self._args("pretrain", self.config, out, "--resume"))
            else:
                recovery = "restarted"
                shutil.rmtree(out_dir, ignore_errors=True)
                run(self._args("pretrain", self.config, out))
            _same_files(out_dir, os.path.join(self.straight, "pretrain"), TRAINED_OUTPUTS)
        elif command == "finetune --resume":
            run(self._args("finetune", self.half_config, out, "--checkpoint", self.pretrained))
            status = run_killed(self._args("finetune", self.config, out, "--resume"),
                                kill, after_s)
            recovery = "resumed"
            run(self._args("finetune", self.config, out, "--resume"))
            _same_files(out_dir, os.path.join(self.straight, "finetune"), TRAINED_OUTPUTS)
        else:
            status = run_killed(self._args("ablate", self.config, out), kill, after_s)
            recovery = "re-run"
            run(self._args("ablate", self.config, out))
            _same_files(out_dir, os.path.join(self.straight, "ablate"), ABLATION_OUTPUTS)
        shutil.rmtree(out_dir)
        return (f"trial {k}: {command} {signal_name} at {after_s:.3f} s, exit {status}, "
                f"{recovery}: ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not os.path.exists("/proc/self/stat"):
        print("kill_probe: needs /proc", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    pairs = list(itertools.product(COMMANDS, SIGNALS))
    rng.shuffle(pairs)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="kill-probe-") as root:
        probe = Probe(root)
        for k, (command, signal_name) in zip(range(args.trials), itertools.cycle(pairs)):
            try:
                print(probe.trial(k, command, signal_name, rng), flush=True)
            except ProbeFailure as exc:
                failures += 1
                print(f"trial {k}: {command} {signal_name}: FAIL {exc}", flush=True)
    print(f"{args.trials - failures} of {args.trials} trials passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
