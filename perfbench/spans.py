"""In-memory span tracing of akgp layers, installed from outside the package.

A :class:`Tracer` replaces each traced function at the module attribute where
its caller looks it up (``akgp.trainer.collate``, ``akgp.cli.build_graph``,
...), records one span per call and restores every original on exit. A span
is ``[name, start, end, parent, trace_id]``; parents index into the span list
of the same thread, because parent stacks are thread-local (the ablation runs
its cells in a thread pool). Each CLI command and each ablation cell starts
its own trace. Hot calls get a counter and no span. Spans stay in memory and
are reduced to per-layer statistics once, after the traced commands end.

A target missing from the akgp under test is reported absent, not an error,
so the benchmark keeps working across refactors behind the entry points.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time

import numpy as np


# sizes, kept as their largest value when counters are merged
MAX_COUNTERS = {"kg.adjacency_bytes"}


def _add(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def merge(into: dict, stats: dict) -> dict:
    """Add ``stats`` into ``into``, keeping the maximum of MAX_COUNTERS."""
    for key, value in stats.items():
        if key in MAX_COUNTERS:
            into[key] = max(into.get(key, 0), value)
        else:
            _add(into, key, value)
    return into


def _nbytes(obj) -> int:
    """Bytes held by an array, a tensor-like ``.data`` array, or the array
    fields of a plain object (a sparse matrix, say)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(getattr(obj, "data", None), np.ndarray):
        return obj.data.nbytes
    fields = getattr(obj, "__dict__", {})
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


def _on_backward(counters, args, kwargs, result):
    tape = args[1] if len(args) > 1 else kwargs.get("tape")
    _add(counters, "tensor.tape_records", len(getattr(tape, "records", ())))


def _on_build_graph(counters, args, kwargs, result):
    adjacency = getattr(result, "adjacency", None)
    if adjacency is not None:
        counters["kg.adjacency_bytes"] = max(counters.get("kg.adjacency_bytes", 0),
                                             _nbytes(adjacency))


def _on_negatives(counters, args, kwargs, result):
    _add(counters, "retrieval.negatives", int(np.asarray(result).size))


def _on_evaluate(counters, args, kwargs, result):
    variant = args[2] if len(args) > 2 else kwargs.get("variant")
    if getattr(variant, "knowledge", "retrieve") == "retrieve":
        _add(counters, "retrieval.hit_rate_sum", result["retrieval_hit_rate"])
        _add(counters, "retrieval.hit_rate_n", 1)


def _on_save(counters, args, kwargs, result):
    _add(counters, "checkpoint.save.bytes", os.path.getsize(args[0]))


# layer name, the (module, attribute) pairs callers look it up through, and
# an optional observer of each call's arguments and result
SPAN_TARGETS = [
    ("cli.main", [("akgp.cli", "main")], None),
    ("tensor.backward", [("akgp.trainer", "backward")], _on_backward),
    ("data.collate", [("akgp.trainer", "collate"), ("akgp.data", "collate")], None),
    ("data.read_examples", [("akgp.cli", "read_examples")], None),
    ("optim.adam_step", [("akgp.trainer", "adam_step")], None),
    ("encoders.encode_batch", [("akgp.trainer", "encode_batch"),
                               ("akgp.encoders", "encode_batch")], None),
    ("fusion.gate_integrate", [("akgp.trainer", "gate_integrate")], None),
    ("fusion.adapt_task", [("akgp.trainer", "adapt_task")], None),
    ("kg.load_triples", [("akgp.cli", "load_triples")], None),
    ("kg.build_graph", [("akgp.cli", "build_graph"),
                        ("akgp.synthbench", "build_graph")], _on_build_graph),
    ("gnn.encode_knowledge", [("akgp.trainer", "encode_knowledge")], None),
    ("retrieval.batch_top1_indices", [("akgp.trainer", "batch_top1_indices")], None),
    ("retrieval.sample_negatives_batch", [("akgp.trainer", "sample_negatives_batch")],
     _on_negatives),
    ("retrieval.retrieve_topk", [("akgp.cli", "retrieve_topk")], None),
    ("losses.align_loss_batch", [("akgp.trainer", "align_loss_batch")], None),
    ("losses.loss_cls_batch", [("akgp.trainer", "loss_cls_batch")], None),
    ("trainer.pretrain_epoch", [("akgp.cli", "pretrain_epoch"),
                                ("akgp.synthbench", "pretrain_epoch")], None),
    ("trainer.finetune_epoch", [("akgp.cli", "finetune_epoch"),
                                ("akgp.synthbench", "finetune_epoch")], None),
    ("trainer.evaluate", [("akgp.cli", "evaluate"), ("akgp.synthbench", "evaluate")],
     _on_evaluate),
    ("trainer.start_stage", [("akgp.cli", "start_stage"), ("akgp.synthbench", "start_stage"),
                             ("akgp.trainer", "start_stage")], None),
    ("checkpoint.save", [("akgp.trainer", "save_checkpoint")], _on_save),
    ("checkpoint.load", [("akgp.cli", "load_checkpoint"),
                         ("akgp.trainer", "load_checkpoint")], None),
    ("manifest.write_manifest", [("akgp.cli", "write_manifest")], None),
    ("synthbench.run_cell", [("akgp.synthbench", "run_cell")], None),
]

# spans that open a new trace even when another span is active on the thread
NEW_TRACE = {"cli.main", "synthbench.run_cell"}
# spans whose waiting time (wall minus the thread's CPU time) is recorded
WAIT_TIMED = {"synthbench.run_cell"}

# counter name, (module, attribute path), amount per call
COUNT_TARGETS = [
    ("tensor.accumulate_grad.calls", ("akgp.tensor", "Tensor.accumulate_grad"),
     lambda args, kwargs, result: 1),
    ("retrieval.neg_keys", ("akgp.retrieval", "splitmix64_array"),
     lambda args, kwargs, result: int(np.asarray(result).size)),
    ("manifest.bytes_digested", ("akgp.manifest", "digest_file"),
     lambda args, kwargs, result: os.path.getsize(args[0])),
]


class _ThreadLog:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._trace_ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, targets, observe in SPAN_TARGETS:
                found = [self._patch(mod, attr, lambda fn, n=name, o=observe:
                                     self._span_wrapper(n, fn, o))
                         for mod, attr in targets]
                if not any(found):
                    self.absent.append(name)
            for name, (mod, attr), amount in COUNT_TARGETS:
                if not self._patch(mod, attr, lambda fn, n=name, a=amount:
                                   self._count_wrapper(n, fn, a)):
                    self.absent.append(name)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore()

    def _patch(self, module_name: str, path: str, make_wrapper) -> bool:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, "__dict__", {}).get(attr)
        if not callable(original):
            return False
        setattr(owner, attr, make_wrapper(original))
        self._installed.append((owner, attr, original))
        return True

    def _restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        new_trace = name in NEW_TRACE
        wait_timed = name in WAIT_TIMED

        def traced(*args, **kwargs):
            log = self._log()
            parent = log.stack[-1] if log.stack else -1
            trace_id = (next(self._trace_ids) if new_trace or parent < 0
                        else log.spans[parent][4])
            span = [name, 0.0, 0.0, parent, trace_id]
            log.stack.append(len(log.spans))
            log.spans.append(span)
            cpu = time.thread_time() if wait_timed else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                log.stack.pop()
            if wait_timed:
                _add(log.counters, f"{name}.wait_s",
                     (span[2] - span[1]) - (time.thread_time() - cpu))
            if observe is not None:
                observe(log.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn, amount):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            _add(self._log().counters, name, amount(args, kwargs, result))
            return result

        counted.__wrapped__ = fn
        return counted

    # -- reduction ----------------------------------------------------------

    def spans(self) -> list[list]:
        return [span for log in self._logs for span in log.spans]

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for log in self._logs:
            merge(merged, log.counters)
        return merged

    def stats(self) -> dict[str, float]:
        """Summed self time and call count per layer, the counters, and the
        share of CLI command time covered by layer spans.

        Self time is a span's duration minus that of its direct children. A
        CLI command's children may run on pool threads, so its self time is
        its duration minus the union of every other span inside it.
        """
        out: dict[str, float] = {}
        for log in self._logs:
            child = [0.0] * len(log.spans)
            for name, start, end, parent, _ in log.spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, start, end, _, _) in enumerate(log.spans):
                if name == "cli.main":
                    continue
                _add(out, f"{name}.self_s", (end - start) - child[i])
                _add(out, f"{name}.calls", 1)
        everything = sorted((s[1], s[2]) for s in self.spans() if s[0] != "cli.main")
        main_total = covered = 0.0
        for name, start, end, _, _ in self.spans():
            if name == "cli.main":
                main_total += end - start
                covered += _union_within(everything, start, end)
                _add(out, "cli.main.calls", 1)
        out["cli.main.self_s"] = main_total - covered
        out["trace.coverage"] = covered / main_total if main_total > 0 else 0.0
        out.update(self.counters())
        return out


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of sorted intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in intervals:
        if start >= hi:
            break
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
