"""Training objectives: contrastive alignment, classification, generation,
and their weighted combination.

The alignment loss is temperature-scaled InfoNCE over cosine similarities.
By default the positive term appears in the denominator alongside the
negatives, which keeps the loss non-negative; ``denominator="negatives_only"``
switches to a sum over negatives alone for comparison.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    cosine_select,
    cosine_sim,
    cross_entropy_rows,
    logsumexp_rows,
    mean_all,
    reshape,
    scale,
    stack_cols,
    sub,
    sum_all,
)

DENOMINATOR_MODES = ("positive_included", "negatives_only")


def loss_align(fused: Tensor, k_pos: Tensor, k_negs: Sequence[Tensor], tau: float,
               denominator: str = "positive_included") -> Tensor:
    """Contrastive alignment loss for one example.

    Pulls the fused representation toward its positive knowledge embedding
    and away from each negative, with similarities sharpened by 1/tau.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if not k_negs:
        raise ValueError("need at least one negative embedding")
    if denominator not in DENOMINATOR_MODES:
        raise ValueError(f"unknown denominator mode {denominator!r}")

    pos_logit = scale(cosine_sim(fused, k_pos), 1.0 / tau)
    neg_logits = stack_cols([reshape(scale(cosine_sim(fused, k), 1.0 / tau), (1,))
                             for k in k_negs])  # (1, N)
    if denominator == "positive_included":
        logits = concat(reshape(pos_logit, (1, 1)), neg_logits)
        return sum_all(cross_entropy_rows(logits, [0]))
    return sub(sum_all(logsumexp_rows(neg_logits)), pos_logit)


def align_loss_rows(fused: Tensor, knowledge: Tensor, positive_indices,
                    negative_indices, tau: float,
                    denominator: str = "positive_included") -> Tensor:
    """(B,) alignment loss of each row of a batch.

    ``positive_indices`` is (B,) and ``negative_indices`` (B, N); rows index
    into the knowledge matrix. Row i equals :func:`loss_align` on pair i,
    and every step works row by row (a row's norm has the same bits in the
    matrix as in the selection, see :func:`cosine_select`), so a row's value
    does not depend on the other rows.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    pos = np.asarray(positive_indices, dtype=np.int64).reshape(-1, 1)
    neg = np.asarray(negative_indices, dtype=np.int64)
    if neg.ndim != 2 or neg.shape[0] != pos.shape[0]:
        raise ShapeError("negative_indices must be (batch, n_negatives)")
    if denominator == "positive_included":
        sims = cosine_select(fused, knowledge, np.concatenate([pos, neg], axis=1))
        logits = scale(sims, 1.0 / tau)
        return cross_entropy_rows(logits, np.zeros(pos.shape[0], dtype=np.int64))
    pos_sims = reshape(cosine_select(fused, knowledge, pos), (pos.shape[0],))
    neg_sims = cosine_select(fused, knowledge, neg)
    return sub(logsumexp_rows(scale(neg_sims, 1.0 / tau)), scale(pos_sims, 1.0 / tau))


def align_loss_batch(fused: Tensor, knowledge: Tensor, positive_indices,
                     negative_indices, tau: float,
                     denominator: str = "positive_included") -> Tensor:
    """Mean alignment loss over a batch: the mean of :func:`align_loss_rows`,
    equal to the average of per-example :func:`loss_align` values."""
    return mean_all(align_loss_rows(fused, knowledge, positive_indices,
                                    negative_indices, tau, denominator))


def loss_cls(logits: Tensor, label: int) -> Tensor:
    """Softmax cross-entropy of one logit vector against its class label."""
    if logits.data.ndim != 1:
        raise ShapeError(f"loss_cls expects a logit vector, got shape {logits.shape}")
    n_classes = logits.shape[0]
    if label < 0 or label >= n_classes:
        raise IndexError(f"label {label} out of range for {n_classes} classes")
    return sum_all(cross_entropy_rows(reshape(logits, (1, n_classes)), [label]))


def loss_gen(step_logits: Tensor, target_tokens: Sequence[int]) -> Tensor:
    """Teacher-forced sequence loss: per-step cross-entropies, summed."""
    if step_logits.data.ndim != 2:
        raise ShapeError(f"loss_gen expects (T, V) logits, got shape {step_logits.shape}")
    targets = list(target_tokens)
    if len(targets) != step_logits.shape[0]:
        raise ShapeError(
            f"{step_logits.shape[0]} logit rows but {len(targets)} target tokens")
    vocab = step_logits.shape[1]
    for tok in targets:
        if tok < 0 or tok >= vocab:
            raise IndexError(f"token {tok} out of range for vocab {vocab}")
    return sum_all(cross_entropy_rows(step_logits, targets))


def loss_cls_batch(logits: Tensor, labels) -> Tensor:
    """Mean classification loss over a batch of logit rows."""
    return mean_all(cross_entropy_rows(logits, labels))


def loss_total(align: Tensor, task: Tensor, lambda1: float, lambda2: float) -> Tensor:
    """Weighted combination lambda1 * align + lambda2 * task."""
    for name, term in (("align", align), ("task", task)):
        value = term.data
        if not (math.isfinite(value) if value.ndim == 0 else np.isfinite(value).all()):
            raise ValueError(f"{name} loss is not finite")
    return add(scale(align, lambda1), scale(task, lambda2))
