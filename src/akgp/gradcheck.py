"""Finite-difference verification of every differentiable primitive and of
the end-to-end training objectives.

Each case builds a scalar-valued function of one probe tensor and compares
its reverse-mode gradient against central differences. Pipeline cases
substitute the probe for one model tensor at a time (rotating with the
seed) and hold retrieval selections fixed, since no gradient flows through
the argmax decision itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig, WorldConfig
from .gnn import encode_knowledge
from .kg import build_graph
from .losses import align_loss_batch, loss_cls_batch, loss_total
from .model import init_model
from .rng import derive_seed
from .encoders import encode_batch
from .tensor import Tensor, fd_check, from_array, uniform
from .trainer import FULL_PIPELINE, _task_head


def _rand(shape, seed, low=-1.0, high=1.0):
    return uniform(shape, low, high, seed)


def _projected(op_output, seed):
    w = _rand(list(op_output.shape) or [1], seed + 77_000)
    flat = T.reshape(op_output, (op_output.size,)) if op_output.shape else \
        T.reshape(op_output, (1,))
    wflat = T.reshape(w, (w.size,))
    return T.sum_all(T.mul(flat, wflat))


def _op_cases():
    """(name, build) pairs; build(seed) returns (f, probe_point)."""

    def simple(op, shape, shift_relu=False):
        def build(seed):
            point = _rand(shape, seed).data
            if shift_relu:
                point = point + np.where(point >= 0, 1e-3, -1e-3)

            def f(x):
                return _projected(op(x, seed), seed)

            return f, from_array(point)
        return build

    idx_pairs = [[0, 3], [5, 5], [2, 1]]
    # a star on "hub" plus a chain hanging off one leaf: degrees 4, 3, 2 and
    # 1 differ, so the row-normalized matrix is far from symmetric
    star_chain = build_graph(
        [("hub", "r", leaf) for leaf in "abcd"] + [("a", "r", "x"), ("x", "r", "y")]).adjacency
    return [
        ("matmul.left", simple(lambda x, s: T.matmul(x, _rand([4, 3], s + 1)), [5, 4])),
        ("matmul.right", simple(lambda x, s: T.matmul(_rand([5, 4], s + 1), x), [4, 3])),
        ("linear.x", simple(
            lambda x, s: T.linear(x, _rand([4, 3], s + 1), _rand([3], s + 2)), [5, 4])),
        ("linear.w", simple(
            lambda x, s: T.linear(_rand([5, 4], s + 1), x, _rand([3], s + 2)), [4, 3])),
        ("linear.b", simple(
            lambda x, s: T.linear(_rand([5, 4], s + 1), _rand([4, 3], s + 2), x), [3])),
        ("add", simple(lambda x, s: T.add(x, _rand([3, 4], s + 1)), [3, 4])),
        ("sub", simple(lambda x, s: T.sub(x, _rand([3, 4], s + 1)), [3, 4])),
        ("mul", simple(lambda x, s: T.mul(x, _rand([3, 4], s + 1)), [3, 4])),
        ("scale", simple(lambda x, s: T.scale(x, 1.7), [3, 4])),
        ("concat.left", simple(lambda x, s: T.concat(x, _rand([3, 2], s + 1)), [3, 4])),
        ("concat.right", simple(lambda x, s: T.concat(_rand([3, 2], s + 1), x), [3, 4])),
        ("reshape", simple(lambda x, s: T.reshape(x, [2, 6]), [3, 4])),
        ("spmm", simple(lambda x, s: T.spmm(star_chain, x), [7, 3])),
        ("gather_rows", simple(lambda x, s: T.gather_rows(x, [2, 0, 2, 1]), [4, 3])),
        ("stack_cols", simple(
            lambda x, s: T.stack_cols([x, _rand([5], s + 1), _rand([5], s + 2)]), [5])),
        ("relu", simple(lambda x, s: T.relu(x), [3, 4], shift_relu=True)),
        ("tanh_act", simple(lambda x, s: T.tanh_act(x), [3, 4])),
        ("sigmoid", simple(lambda x, s: T.sigmoid(x), [3, 4])),
        ("softmax_row", simple(lambda x, s: T.softmax_row(x), [6])),
        ("sum_all", simple(lambda x, s: T.reshape(T.sum_all(x), [1]), [3, 4])),
        ("mean_all", simple(lambda x, s: T.reshape(T.mean_all(x), [1]), [3, 4])),
        ("logsumexp_rows", simple(lambda x, s: T.logsumexp_rows(x), [3, 5])),
        ("cross_entropy_rows", simple(
            lambda x, s: T.cross_entropy_rows(x, [1, 0, 3]), [3, 4])),
        ("cosine_sim.left", simple(
            lambda x, s: T.reshape(T.cosine_sim(x, _rand([5], s + 1)), [1]), [5])),
        ("cosine_sim.right", simple(
            lambda x, s: T.reshape(T.cosine_sim(_rand([5], s + 1), x), [1]), [5])),
        ("cosine_select.queries", simple(
            lambda x, s: T.cosine_select(x, _rand([6, 5], s + 1), idx_pairs), [3, 5])),
        ("cosine_select.table", simple(
            lambda x, s: T.cosine_select(_rand([3, 5], s + 1), x, idx_pairs), [6, 5])),
    ]


# ---------------------------------------------------------------------------
# end-to-end pipelines on a micro world


def _micro_config(seed):
    return TrainConfig(
        d_i=3, d_t=3, d_m=4, d_k=3, d_h=3, d_a=4,
        vocab_size=6, n_classes=2, n_negatives=1, seed=seed,
        world=WorldConfig(n_entities=2, n_attributes=2, n_examples=4,
                          sigma_noise=0.3, seed=seed),
    )


def _micro_model(seed):
    cfg = _micro_config(seed)
    triples = [("a", "r", "b"), ("b", "r", "c")]
    graph = build_graph(triples)
    model = init_model(cfg, graph)
    # Nonzero biases keep every node embedding away from the zero vector,
    # where cosine similarity has its (deliberate) dead spot; finite
    # differences cannot straddle that kink, same as the relu precaution.
    model.theta_k["b1"].data[...] = _rand([cfg.d_h], seed + 600, 0.05, 0.15).data
    model.theta_k["b2"].data[...] = _rand([cfg.d_m], seed + 601, 0.05, 0.15).data
    images = _rand([2, cfg.d_i], seed + 500)
    bow = np.zeros((2, cfg.vocab_size))
    bow[0, [0, 2]] = 0.5
    bow[1, [1, 4, 5]] = 1.0 / 3.0
    return cfg, graph, model, images, Tensor(bow)


def _pipeline_case(kind):
    def build(seed):
        cfg, graph, model, images, bow = _micro_model(seed)
        names = [name for name, _ in model.named_tensors()]
        if kind == "align":
            # the gate and adaptor do not enter the alignment loss; their
            # true gradient is identically zero and FD would compare noise
            names = [n for n in names
                     if n.split(".")[0] in ("theta_v", "theta_t", "theta_m", "theta_k")]
        probe_name = names[seed % len(names)]
        positives = np.array([0, 2])
        negatives = np.array([[1], [0]])
        labels = np.array([0, 1])

        def f(x):
            tensors = dict(model.named_tensors())
            originals = tensors[probe_name]
            group, _, short = probe_name.partition(".")
            getattr(model, group)[short] = x
            try:
                knowledge = encode_knowledge(graph, model.gnn_params())
                fused = encode_batch(Tensor(images.data), bow,
                                     model.encoder_params())
                align = align_loss_batch(fused, knowledge, positives, negatives, 0.5)
                if kind == "align":
                    return align
                logits, _ = _task_head(model, knowledge, fused, FULL_PIPELINE,
                                       retrieved=positives)  # selection held fixed
                task = loss_cls_batch(logits, labels)
                return loss_total(align, task, 0.7, 1.3)
            finally:
                getattr(model, group)[short] = originals

        probe = dict(model.named_tensors())[probe_name]
        return f, Tensor(probe.data.copy())
    return build


def pipeline_cases():
    return [
        ("pipeline.align_loss", _pipeline_case("align")),
        ("pipeline.total_loss", _pipeline_case("total")),
    ]


@dataclass
class CaseReport:
    name: str
    passed: bool
    max_rel_err: float
    rounds: int


def run_gradient_report(master_seed: int = 0, rounds: int = 3,
                        h: float = 1e-5, tol: float = 1e-4) -> list[CaseReport]:
    """fd_check every case over ``rounds`` seeds; one report line per case."""
    reports = []
    for name, build in _op_cases() + pipeline_cases():
        worst = 0.0
        ok = True
        for r in range(rounds):
            seed = derive_seed(master_seed, f"{name}.{r}") % (1 << 31)
            f, probe = build(seed)
            result = fd_check(f, probe, h=h, tol=tol)
            worst = max(worst, result.max_rel_err)
            ok = ok and result.passed
        reports.append(CaseReport(name=name, passed=ok, max_rel_err=worst,
                                  rounds=rounds))
    return reports
