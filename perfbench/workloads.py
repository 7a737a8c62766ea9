"""The akgp benchmark workloads, their inputs, timed commands and checks.

Every workload drives akgp from outside: the ``akgp`` CLI entry
(``akgp.cli.main``, called in-process with its output captured) wherever a
command exists, and public package functions otherwise. Inputs are made from
the workload seed with akgp's own generator before any timing starts.

Each workload has a set-up step and two timed steps, so every workload
reports the same end-to-end metrics (``setup_s``, ``cmd1_items_per_s`` and
``cmd2_items_per_s``). The set-up step returns its wall seconds and a timed
step one :class:`Sample`:

=============== ================================= ===================================
workload        step 1                            step 2
=============== ================================= ===================================
ablate-default  ``akgp ablate`` (cells/s)          ``akgp pretrain`` + ``akgp finetune``
                                                  of one serial run (samples/s)
train-3k        ``akgp pretrain`` (samples/s)      ``akgp finetune`` (samples/s)
serve-10k       ``akgp eval`` (queries/s)          ``akgp retrieve`` (queries/s)
=============== ================================= ===================================

An operation is one CLI command or one checked output line; a nonzero exit
or a failed check counts it as failed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import time
from typing import NamedTuple

import numpy as np

import akgp
import akgp.cli
import akgp.encoders
from akgp.checkpoint import load_checkpoint
from akgp.trainer import STAGE_FINETUNE

SIM_TOLERANCE = 1e-9


class Runner:
    """Runs CLI commands in a private work directory and counts operations."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.work_dir, *parts)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def write_json(self, name: str, record: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return path

    def cli(self, *argv: str) -> tuple[float, str]:
        """Run one akgp command; returns (wall seconds, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = akgp.cli.main(list(argv))
        except Exception as exc:  # a crash is one failed operation, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self.check(code == 0, f"akgp {argv[0]} exited {code}: {err.getvalue().strip()}")
        return seconds, out.getvalue()


class Sample(NamedTuple):
    """Work done by one call of a step and its wall time."""

    items: int
    seconds: float


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _finite_record(line: str) -> bool:
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return False
    numbers = [v for v in record.values() if isinstance(v, (int, float))]
    return bool(numbers) and all(math.isfinite(v) for v in numbers)


def check_training_run(run: Runner, out_dir: str, epochs: int, loss_key: str):
    """One finite run-log line per epoch and a loadable checkpoint; returns
    the last epoch's ``loss_key``."""
    try:
        with open(os.path.join(out_dir, "run_log.jsonl"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    run.check(len(lines) == epochs, f"{out_dir}: {len(lines)} run-log lines, want {epochs}")
    for line in lines:
        run.check(_finite_record(line), f"{out_dir}: bad run-log line {line[:80]}")
    try:
        load_checkpoint(os.path.join(out_dir, "checkpoint.akgp"))
        loaded = True
    except (OSError, ValueError):
        loaded = False
    run.check(loaded, f"{out_dir}: checkpoint does not load")
    try:
        return float(json.loads(lines[-1])[loss_key])
    except (IndexError, KeyError, ValueError):
        return float("nan")


def check_ablation_csv(run: Runner, path: str, cells: int) -> dict[str, float]:
    """``cells`` rows with accuracies in [0, 1], and the ``+alignment`` and
    ``full`` means above the ``baseline`` mean; returns the mean per row."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
    except OSError:
        rows = []
    run.check(len(rows) == cells, f"{path}: {len(rows)} rows, want {cells}")
    accuracies: dict[str, list[float]] = {}
    for row in rows:
        name, _, acc = (row.split(",") + ["", ""])[:3]
        try:
            value = float(acc)
        except ValueError:
            value = float("nan")
        if run.check(0.0 <= value <= 1.0, f"{path}: bad row {row}"):
            accuracies.setdefault(name, []).append(value)
    means = {name: sum(v) / len(v) for name, v in accuracies.items()}
    base = means.get("baseline", float("inf"))
    run.check(means.get("+alignment", -1.0) > base and means.get("full", -1.0) > base,
              f"{path}: ablation ladder broken: {means}")
    return means


def topk_oracle(queries: np.ndarray, knowledge: np.ndarray, k: int):
    """Brute-force cosine top-k per query row: descending similarity, the
    lowest index on ties. Returns (indices, similarities), both (Q, k)."""
    nq = np.linalg.norm(queries, axis=1)
    nk = np.linalg.norm(knowledge, axis=1)
    sims = queries @ knowledge.T
    dead = (nq[:, None] < 1e-12) | (nk[None, :] < 1e-12)
    sims = np.where(dead, 0.0, sims / np.maximum(nq[:, None] * nk[None, :], 1e-12))
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(sims, order, axis=1)


def check_retrieve_lines(run: Runner, text: str, expected_ids: list[list[str]],
                         expected_sims: np.ndarray) -> None:
    """Every query gets k lines whose node ids equal the oracle's, in order,
    with similarities within SIM_TOLERANCE."""
    lines = text.splitlines()
    k = expected_sims.shape[1]
    run.check(len(lines) == len(expected_ids) * k,
              f"retrieve printed {len(lines)} lines, want {len(expected_ids) * k}")
    for n, line in enumerate(lines[:len(expected_ids) * k]):
        q, rank = divmod(n, k)
        try:
            record = json.loads(line)
            ok = (record["node_id"] == expected_ids[q][rank]
                  and abs(record["similarity"] - expected_sims[q, rank]) <= SIM_TOLERANCE)
        except (json.JSONDecodeError, KeyError, TypeError):
            ok = False
        run.check(ok, f"retrieve line {n} ({line[:80]}) disagrees with the oracle")


class Workload:
    name = ""
    why = ""
    label1 = ("", "")  # (per-workload name, unit) of step 1 in the printed table
    label2 = ("", "")
    # share of an end-to-end run's measured time that each step gets
    shares = {"setup_s": 0.2, "cmd1_items_per_s": 0.4, "cmd2_items_per_s": 0.4}

    def __init__(self):
        self.quality: dict[str, list[float]] = {}

    def prepare(self, run: Runner, seed: int) -> dict[str, str]:
        """Write the inputs; returns their sha256 digests."""
        raise NotImplementedError

    def setup(self, run: Runner) -> float:
        """Wall seconds of the workload's commands with no training work or
        a one-query file."""
        raise NotImplementedError

    def step1(self, run: Runner) -> Sample:
        raise NotImplementedError

    def step2(self, run: Runner) -> Sample:
        raise NotImplementedError

    def round(self, run: Runner) -> tuple[Sample, Sample]:
        """One call of each timed step."""
        return self.step1(run), self.step2(run)

    def note(self, key: str, value: float) -> None:
        self.quality.setdefault(key, []).append(value)

    def _gen_data(self, run: Runner, config: dict) -> dict[str, str]:
        cfg = run.write_json("world.json", config)
        run.cli("gen-data", "--config", cfg, "--out", run.path("world"))
        self.kg, self.data = run.path("world", "kg.tsv"), run.path("world", "dataset.jsonl")
        return {os.path.basename(p): sha256_file(p) for p in (self.kg, self.data)}


class AblateDefault(Workload):
    name = "ablate-default"
    why = ("24-node default world: 15 ablation cells in the thread pool, and short serial "
           "training runs; per-op Python overhead dominates, the kg, gnn and retrieval "
           "layers do almost nothing")
    label1 = ("ablation_s", "s")
    label2 = ("serial_train_samples_per_s", "samples/s")
    shares = {"setup_s": 0.1, "cmd1_items_per_s": 0.6, "cmd2_items_per_s": 0.3}
    pretrain_epochs = 4
    finetune_epochs = 5
    serial_epochs = (2, 3)
    cells = 15  # 5 configurations x 3 seeds

    def prepare(self, run, seed):
        world = {"seed": seed, "world": {"seed": seed}}
        digests = self._gen_data(run, world)
        self.n_examples = len(akgp.read_examples(self.data))
        self.cfg = run.write_json("ablate.json", dict(
            world, pretrain_epochs=self.pretrain_epochs, finetune_epochs=self.finetune_epochs))
        self.cfg0 = run.write_json("setup.json", dict(world, pretrain_epochs=0,
                                                     finetune_epochs=0))
        pre_epochs, fine_epochs = self.serial_epochs
        self.serial_cfg = run.write_json("serial.json", dict(
            world, pretrain_epochs=pre_epochs, finetune_epochs=fine_epochs))
        return digests

    def setup(self, run):
        seconds, _ = run.cli("ablate", "--config", self.cfg0, "--kg", self.kg,
                             "--data", self.data, "--out", fresh(run.path("setup")))
        return seconds

    def step1(self, run):
        out = fresh(run.path("ablate"))
        seconds, _ = run.cli("ablate", "--config", self.cfg, "--kg", self.kg,
                             "--data", self.data, "--out", out)
        means = check_ablation_csv(run, os.path.join(out, "ablation.csv"), self.cells)
        self.note("full_accuracy", means.get("full", float("nan")))
        return Sample(self.cells, seconds)

    def step2(self, run):
        inputs = ["--config", self.serial_cfg, "--kg", self.kg, "--data", self.data]
        pre, fine = fresh(run.path("pre")), fresh(run.path("fine"))
        s_pre, _ = run.cli("pretrain", *inputs, "--out", pre)
        s_fine, _ = run.cli("finetune", *inputs, "--out", fine,
                            "--checkpoint", os.path.join(pre, "checkpoint.akgp"))
        pre_epochs, fine_epochs = self.serial_epochs
        check_training_run(run, pre, pre_epochs, "mean_align_loss")
        check_training_run(run, fine, fine_epochs, "mean_total_loss")
        return Sample(self.n_examples * (pre_epochs + fine_epochs), s_pre + s_fine)


class Train3k(Workload):
    name = "train-3k"
    why = ("3,004-node graph: pretrain then finetune; the dense adjacency in gnn, negative "
           "sampling, retrieval top-1 and per-epoch checkpoint writes dominate")
    label1 = ("pretrain_samples_per_s", "samples/s")
    label2 = ("finetune_samples_per_s", "samples/s")
    n_entities = 3000
    n_examples = 512
    pretrain_epochs = 1
    finetune_epochs = 6

    def prepare(self, run, seed):
        world = {"seed": seed, "vocab_size": 14 + self.n_entities,
                 "world": {"seed": seed, "n_entities": self.n_entities,
                           "n_examples": self.n_examples}}
        digests = self._gen_data(run, world)
        self.cfg = run.write_json("train.json", dict(
            world, pretrain_epochs=self.pretrain_epochs, finetune_epochs=self.finetune_epochs))
        self.cfg0 = run.write_json("setup.json", dict(world, pretrain_epochs=0,
                                                     finetune_epochs=0))
        # the pretrain-stage checkpoint every fine-tune starts from
        run.cli("pretrain", "--config", self.cfg, "--kg", self.kg, "--data", self.data,
                "--out", run.path("prep"))
        self.prep_checkpoint = run.path("prep", "checkpoint.akgp")
        check_training_run(run, run.path("prep"), self.pretrain_epochs, "mean_align_loss")
        return digests

    def setup(self, run):
        inputs = ["--config", self.cfg0, "--kg", self.kg, "--data", self.data]
        s_pre, _ = run.cli("pretrain", *inputs, "--out", fresh(run.path("setup_pre")))
        s_fine, _ = run.cli("finetune", *inputs, "--out", fresh(run.path("setup_fine")),
                            "--checkpoint", self.prep_checkpoint)
        return s_pre + s_fine

    def step1(self, run):
        pre = fresh(run.path("pre"))
        seconds, _ = run.cli("pretrain", "--config", self.cfg, "--kg", self.kg,
                             "--data", self.data, "--out", pre)
        self.note("pretrain_align_loss",
                  check_training_run(run, pre, self.pretrain_epochs, "mean_align_loss"))
        return Sample(self.n_examples * self.pretrain_epochs, seconds)

    def step2(self, run):
        fine = fresh(run.path("fine"))
        seconds, _ = run.cli("finetune", "--config", self.cfg, "--kg", self.kg,
                             "--data", self.data, "--out", fine,
                             "--checkpoint", self.prep_checkpoint)
        check_training_run(run, fine, self.finetune_epochs, "mean_total_loss")
        return Sample(self.n_examples * self.finetune_epochs, seconds)


class Serve10k(Workload):
    name = "serve-10k"
    why = ("10,004-node graph: eval and top-k retrieve from a checkpoint; graph build, a "
           "forward-only gnn pass, per-query top-k and JSON output dominate; no backward pass")
    label1 = ("eval_queries_per_s", "queries/s")
    label2 = ("retrieve_queries_per_s", "queries/s")
    n_entities = 10000
    n_queries = 1000

    def prepare(self, run, seed):
        world = {"seed": seed, "vocab_size": 14 + self.n_entities,
                 "world": {"seed": seed, "n_entities": self.n_entities,
                           "n_examples": self.n_queries}}
        digests = self._gen_data(run, world)
        self.cfg = run.write_json("serve.json", world)
        self.one_query = run.path("one_query.jsonl")
        with open(self.data, encoding="utf-8") as src, \
                open(self.one_query, "w", encoding="utf-8") as dst:
            dst.write(src.readline())
        self.checkpoint = run.path("checkpoint.akgp")
        self._prepare_checkpoint()
        return digests

    def _prepare_checkpoint(self) -> None:
        """Save a fine-tune-stage checkpoint, load it back, and record the
        oracle's answers for it."""
        cfg = akgp.parse_config(self.cfg)
        graph = akgp.build_graph(akgp.load_triples(self.kg), cfg.d_k,
                                 akgp.derive_seed(cfg.seed, "graph"))
        state = akgp.make_run(cfg, graph)
        akgp.start_stage(state, STAGE_FINETUNE)
        akgp.save_state(self.checkpoint, state)
        state = akgp.load_state(self.checkpoint, cfg, graph)
        knowledge = akgp.encode_knowledge(graph, state.model.gnn_params()).data
        batch = akgp.collate(akgp.read_examples(self.data), cfg.vocab_size, graph.node_index)
        queries = akgp.encoders.encode_batch(
            akgp.Tensor(batch.images), akgp.Tensor(batch.token_bow),
            state.model.encoder_params()).data
        order, self.expected_sims = topk_oracle(queries, knowledge,
                                                min(cfg.retrieve_k, graph.n_nodes))
        self.expected_ids = [[graph.node_ids[i] for i in row] for row in order]
        gold = batch.gold_indices >= 0
        self.expected_hit_rate = float((order[gold, 0] == batch.gold_indices[gold]).mean())
        del graph, state  # the dense adjacency must not overlap the timed commands
        gc.collect()

    def _inputs(self, data):
        return ["--config", self.cfg, "--kg", self.kg, "--data", data,
                "--checkpoint", self.checkpoint]

    def setup(self, run):
        s_eval, _ = run.cli("eval", *self._inputs(self.one_query))
        s_retrieve, retrieve_out = run.cli("retrieve", *self._inputs(self.one_query))
        check_retrieve_lines(run, retrieve_out, self.expected_ids[:1], self.expected_sims[:1])
        return s_eval + s_retrieve

    def step1(self, run):
        seconds, eval_out = run.cli("eval", *self._inputs(self.data))
        try:
            metrics = json.loads(eval_out)
            hit_rate = float(metrics["retrieval_hit_rate"])
            ok = (0.0 <= metrics["accuracy"] <= 1.0 and math.isfinite(metrics["mean_loss"])
                  and abs(hit_rate - self.expected_hit_rate) <= SIM_TOLERANCE)
        except (json.JSONDecodeError, KeyError, TypeError):
            hit_rate, ok = float("nan"), False
        run.check(ok, f"eval output {eval_out.strip()[:120]} disagrees with the oracle "
                      f"hit rate {self.expected_hit_rate}")
        self.note("retrieval_hit_rate", hit_rate)
        return Sample(self.n_queries, seconds)

    def step2(self, run):
        seconds, retrieve_out = run.cli("retrieve", *self._inputs(self.data))
        check_retrieve_lines(run, retrieve_out, self.expected_ids, self.expected_sims)
        return Sample(self.n_queries, seconds)


WORKLOADS = {w.name: w for w in (AblateDefault, Train3k, Serve10k)}
