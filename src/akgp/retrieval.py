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

from .rng import Rng, splitmix64_array, splitmix64_words
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


# a draw in [0, b) keeps the splitmix64 words below _DRAW_SPAN // b * b, so every
# value has the same odds; a word above that is redrawn (odds below b / 2**64)
_DRAW_SPAN = (1 << 64) - 1


def sample_negatives_batch(positive_indices, n_nodes: int, count: int,
                           rng: Rng, group_sizes=None) -> np.ndarray:
    """Negatives for a whole batch from one draw of the sequential stream
    per group of rows.

    Each row draws ``count`` distinct nodes other than its positive by
    Floyd's algorithm (Bentley and Floyd, CACM 1987) over the ``n_nodes - 1``
    candidates, candidate c being node ``c + (c >= positive)``: draw i takes
    t uniformly from [0, b), b = ``n_nodes - count + i``, or b - 1 if the row
    already holds t. A row keeps its draw order; it is not sorted.

    A group's stream word expands to ``size * count`` splitmix64 words, row
    j's draw i reading word ``j * count + i``; t is the word mod b, and a word
    at or above ``_DRAW_SPAN // b * b`` is redrawn from the group's counters
    that follow, in row-major order. One call gives what one call per group
    (``group_sizes``; by default one group) would. The work is rows x count
    words and rows x count**2 / 2 comparisons, whatever ``n_nodes`` is, in
    one pass over the draws that holds rows x count bytes of them at once.
    """
    positives = np.asarray(positive_indices, dtype=np.int64)
    if count < 1:
        raise ValueError("need at least one negative")
    if count > n_nodes - 1:
        raise ValueError(
            f"cannot draw {count} negatives from {n_nodes} nodes excluding the positive")
    if positives.ndim != 1:
        raise ValueError(f"positives must be 1-d, got shape {positives.shape}")
    n_rows = len(positives)
    if n_rows and positives.view(np.uint64).max() >= n_nodes:  # a negative wraps above
        row = int(np.argmax((positives < 0) | (positives >= n_nodes)))
        raise ValueError(f"row {row}: positive {positives[row]} is not a node in [0, {n_nodes})")
    sizes = [n_rows] if group_sizes is None else [int(n) for n in group_sizes]
    if not sizes or sum(sizes) != n_rows:
        raise ValueError(f"group sizes {sizes} do not add up to {n_rows} rows")
    words = [rng.next_u64() for _ in sizes]
    draws = splitmix64_array(words, max(sizes) * count)
    if min(sizes) != max(sizes):  # shorter groups use a prefix of their words
        draws = np.concatenate([row[:n * count] for row, n in zip(draws, sizes)])
    draws = draws.reshape(n_rows, count)
    offset = n_nodes - count - 1  # draw i's b - 1 is offset + i
    bounds = np.arange(offset + 1, n_nodes, dtype=np.uint64)
    if n_rows and draws.max() > _DRAW_SPAN - n_nodes:  # below every limit otherwise
        limits = [_DRAW_SPAN // int(b) * int(b) for b in bounds]
        group_of = np.repeat(np.arange(len(sizes)), sizes)
        spares = [splitmix64_words(word, size * count) for word, size in zip(words, sizes)]
        for row, i in zip(*np.nonzero(draws >= np.array(limits, dtype=np.uint64))):
            draws[row, i] = next(w for w in spares[group_of[row]] if w < limits[i])
    # draws as rows and sampled rows as columns: each numpy pass runs along the latter
    picks = np.remainder(draws.T, bounds[:, None],
                         out=np.empty((count, n_rows), dtype=np.uint64)).view(np.int64)
    # Floyd's rule: draw i takes b - 1 = offset + i where its row already holds t
    for i in range(1, count):
        picks[i, (picks[:i] == picks[i]).any(axis=0)] = offset + i
    sample = np.empty((n_rows, count), dtype=np.int64)
    np.add(picks, picks >= positives, out=sample.T)
    return sample
