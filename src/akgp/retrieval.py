"""Exact cosine retrieval over knowledge embeddings and negative sampling.

Retrieval scans every row: the knowledge matrix is desk-scale, and an exact
scan keeps the contract trivially testable against a brute-force oracle.
Selection itself is hard (non-differentiable); gradients reach the
embedding matrix only through the returned live row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .rng import Rng, splitmix64_array
from .tensor import COSINE_EPS, ShapeError, Tensor, gather_rows, reshape


@dataclass
class RetrievalResult:
    node_index: int
    similarity: float
    embedding: Tensor  # live (d_e,) row of the knowledge matrix


def cosine_to_rows(query: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Cosine similarity of one query vector against every table row."""
    norms = np.sqrt((table * table).sum(axis=1))
    nq = float(np.sqrt(np.dot(query, query)))
    denom = np.maximum(nq * norms, COSINE_EPS)
    sims = table @ query / denom
    dead = (norms < COSINE_EPS) | (nq < COSINE_EPS)
    return np.where(dead, 0.0, sims)


def _check_inputs(query: Tensor, knowledge: Tensor) -> None:
    if knowledge.data.ndim != 2 or knowledge.shape[0] < 1:
        raise ShapeError("knowledge matrix must be a non-empty 2-d tensor")
    if query.data.ndim != 1 or query.shape[0] != knowledge.shape[1]:
        raise ShapeError(
            f"query width {query.shape} does not match embeddings {knowledge.shape}")


def _live_row(knowledge: Tensor, index: int) -> Tensor:
    row = gather_rows(knowledge, [index])
    return reshape(row, (knowledge.shape[1],))


def retrieve_top1(query: Tensor, knowledge: Tensor) -> RetrievalResult:
    """Most-similar row by exact scan; ties break toward the lowest index."""
    _check_inputs(query, knowledge)
    sims = cosine_to_rows(query.data, knowledge.data)
    best = int(np.argmax(sims))  # argmax returns the first maximum
    return RetrievalResult(best, float(sims[best]), _live_row(knowledge, best))


def retrieve_topk(query: Tensor, knowledge: Tensor, k: int) -> list[RetrievalResult]:
    """The k best rows, descending similarity, index-ascending on ties.

    Maintains a bounded heap of size k rather than sorting the full table.
    """
    _check_inputs(query, knowledge)
    n = knowledge.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    sims = cosine_to_rows(query.data, knowledge.data)

    # min-heap keyed so the root is the worst of the current best-k
    heap: list[tuple[float, int]] = []
    for idx in range(n):
        key = (sims[idx], -idx)
        if len(heap) < k:
            heapq.heappush(heap, key)
        elif key > heap[0]:
            heapq.heapreplace(heap, key)
    ranked = sorted(heap, key=lambda kv: (-kv[0], -kv[1]))
    return [RetrievalResult(-neg_idx, float(sim), _live_row(knowledge, -neg_idx))
            for sim, neg_idx in ranked]


def batch_top1_indices(queries: np.ndarray, knowledge: np.ndarray) -> np.ndarray:
    """Row index of the best match for each query row (selection only)."""
    nq = np.sqrt((queries * queries).sum(axis=1))
    nk = np.sqrt((knowledge * knowledge).sum(axis=1))
    denom = np.maximum(nq[:, None] * nk[None, :], COSINE_EPS)
    sims = queries @ knowledge.T / denom
    dead = (nq[:, None] < COSINE_EPS) | (nk[None, :] < COSINE_EPS)
    sims = np.where(dead, 0.0, sims)
    return sims.argmax(axis=1)


def sample_negatives(positive_index: int, n_nodes: int, count: int,
                     rng: Rng | int) -> list[int]:
    """Draw ``count`` distinct indices uniformly from all non-positive nodes.

    Accepts a live generator (training keeps one across steps) or a bare
    seed for one-shot use.
    """
    if count < 1:
        raise ValueError("need at least one negative")
    if count > n_nodes - 1:
        raise ValueError(
            f"cannot draw {count} negatives from {n_nodes} nodes excluding the positive")
    if isinstance(rng, int):
        rng = Rng(rng)
    pool = [i for i in range(n_nodes) if i != positive_index]
    for slot in range(count):  # partial Fisher-Yates
        j = slot + rng.randrange(len(pool) - slot)
        pool[slot], pool[j] = pool[j], pool[slot]
    return pool[:count]


def sample_negatives_batch(positive_indices, n_nodes: int, count: int,
                           rng: Rng) -> np.ndarray:
    """Negatives for a whole batch from one draw of the sequential stream.

    Each node gets an independent 64-bit key (counter-based expansion of a
    single generator word); the row's positive is masked to the maximum key
    and the ``count`` smallest remaining keys, in ascending key order, are
    the sample. Per row this is exactly uniform without replacement over the
    non-positive nodes. splitmix64 maps distinct counters to distinct words,
    so no two keys tie and a partial selection equals a full sort's prefix.
    """
    positives = np.asarray(positive_indices, dtype=np.int64)
    if count < 1:
        raise ValueError("need at least one negative")
    if count > n_nodes - 1:
        raise ValueError(
            f"cannot draw {count} negatives from {n_nodes} nodes excluding the positive")
    n_rows = positives.shape[0]
    keys = splitmix64_array(rng.next_u64(), n_rows * n_nodes).reshape(n_rows, n_nodes)
    rows = np.arange(n_rows)[:, None]
    keys[rows[:, 0], positives] = np.uint64(0xFFFFFFFFFFFFFFFF)
    chosen = np.argpartition(keys, count - 1, axis=1)[:, :count]
    order = np.argsort(keys[rows, chosen], axis=1, kind="stable")
    return chosen[rows, order].astype(np.int64)
