"""Exact cosine retrieval over knowledge embeddings and negative sampling.

Retrieval scans every row: the knowledge matrix is desk-scale, and an exact
scan keeps the contract trivially testable against a brute-force oracle.
:func:`cosine_scores` is the one similarity kernel and :func:`topk_indices`
the one selection; every retrieval path goes through them. Selection itself
is hard (non-differentiable); gradients reach the embedding matrix only
through the returned live row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng, splitmix64_array
from .tensor import COSINE_EPS, ShapeError, Tensor, gather_rows, reshape, row_norms


@dataclass
class RetrievalResult:
    node_index: int
    similarity: float
    embedding: Tensor  # live (d_e,) row of the knowledge matrix


def cosine_scores(queries: np.ndarray, table: np.ndarray,
                  table_norms: np.ndarray | None = None) -> np.ndarray:
    """(B, N) cosine similarity of each query row with each table row.

    A pair with a norm below ``COSINE_EPS`` scores 0; a NaN norm is not
    "dead", so non-finite inputs propagate. ``table_norms``, when given,
    must be ``row_norms(table)``.
    """
    nq = row_norms(queries)
    nt = row_norms(table) if table_norms is None else table_norms
    denom = nq[:, None] * nt[None, :]
    np.maximum(denom, COSINE_EPS, out=denom)
    sims = queries @ table.T
    sims /= denom
    sims[nq < COSINE_EPS] = 0.0
    sims[:, nt < COSINE_EPS] = 0.0
    return sims


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """(B, k) column indices of each row's k highest scores.

    Columns come in descending score, index-ascending on ties, exactly as
    a full stable sort would give them. A NaN score ranks first, as it does
    for ``argmax``. A partition finds the k-th best score; every column
    scoring better is taken, the lowest indices tied with the k-th fill the
    remaining places, and a stable sort orders the k winners.
    """
    n = scores.shape[1]
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    key = -scores  # ascending key = descending score
    key[np.isnan(key)] = -np.inf
    kth = np.partition(key, k - 1, axis=1)[:, [k - 1]]
    better = key < kth
    tied = key == kth
    room = k - better.sum(axis=1, keepdims=True)
    better |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room)
    winners = np.nonzero(better)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(key, winners, axis=1), axis=1, kind="stable")
    return np.take_along_axis(winners, order, axis=1)


def batch_top1_indices(queries: np.ndarray, knowledge: np.ndarray,
                       knowledge_norms: np.ndarray | None = None) -> np.ndarray:
    """Row index of the best match for each query row (selection only)."""
    return cosine_scores(queries, knowledge, knowledge_norms).argmax(axis=1)


def retrieve_topk(query: Tensor, knowledge: Tensor, k: int) -> list[RetrievalResult]:
    """The k best rows for one (d_e,) query, as :func:`topk_indices` ranks them."""
    if knowledge.data.ndim != 2 or knowledge.shape[0] < 1:
        raise ShapeError("knowledge matrix must be a non-empty 2-d tensor")
    if query.data.ndim != 1 or query.shape[0] != knowledge.shape[1]:
        raise ShapeError(
            f"query width {query.shape} does not match embeddings {knowledge.shape}")
    sims = cosine_scores(query.data[None, :], knowledge.data)
    return [RetrievalResult(int(i), float(sims[0, i]),
                            reshape(gather_rows(knowledge, [i]), (knowledge.shape[1],)))
            for i in topk_indices(sims, k)[0]]


def retrieve_top1(query: Tensor, knowledge: Tensor) -> RetrievalResult:
    """Most-similar row by exact scan; ties break toward the lowest index."""
    return retrieve_topk(query, knowledge, 1)[0]


def sample_negatives_batch(positive_indices, n_nodes: int, count: int,
                           rng: Rng, group_sizes=None) -> np.ndarray:
    """Negatives for a whole batch from one draw of the sequential stream
    per group of rows.

    Each node gets an independent 64-bit key (counter-based expansion of a
    single generator word); the row's positive is masked to the maximum key
    and the ``count`` smallest remaining keys, in ascending key order, are
    the sample. Per row this is exactly uniform without replacement over the
    non-positive nodes. splitmix64 maps distinct counters to distinct words,
    so no two keys tie and a partial selection equals a full sort's prefix.

    ``group_sizes`` splits the rows into consecutive groups, each expanded
    from its own word of the stream in order, so one call gives what one
    call per group would; by default all rows form one group.
    """
    positives = np.asarray(positive_indices, dtype=np.int64)
    if count < 1:
        raise ValueError("need at least one negative")
    if count > n_nodes - 1:
        raise ValueError(
            f"cannot draw {count} negatives from {n_nodes} nodes excluding the positive")
    n_rows = positives.shape[0]
    sizes = [n_rows] if group_sizes is None else [int(n) for n in group_sizes]
    if not sizes or sum(sizes) != n_rows:
        raise ValueError(f"group sizes {sizes} do not add up to {n_rows} rows")
    keys = splitmix64_array([rng.next_u64() for _ in sizes], max(sizes) * n_nodes)
    if min(sizes) != max(sizes):  # shorter groups use a prefix of their row
        keys = np.concatenate([row[:n * n_nodes] for row, n in zip(keys, sizes)])
    keys = keys.reshape(n_rows, n_nodes)
    rows = np.arange(n_rows)[:, None]
    keys[rows[:, 0], positives] = np.uint64(0xFFFFFFFFFFFFFFFF)
    chosen = np.argpartition(keys, count - 1, axis=1)[:, :count]
    order = np.argsort(keys[rows, chosen], axis=1, kind="stable")
    return chosen[rows, order].astype(np.int64)
