"""Retrieval against brute-force oracles, tie-breaking, negative sampling."""

import numpy as np
import pytest

from akgp.retrieval import (
    batch_top1_indices,
    cosine_scores,
    retrieve_top1,
    retrieve_topk,
    sample_negatives_batch,
    topk_indices,
)
from akgp.rng import Rng, splitmix64_array
from akgp.tensor import (
    Tape,
    Tensor,
    backward,
    cosine_sim,
    from_array,
    row_norms,
    sum_all,
    uniform,
)


def brute_force_ranking(query, knowledge):
    """Independent oracle: per-row cosine via the scalar op, then a full sort
    by (similarity desc, index asc)."""
    sims = [cosine_sim(from_array(query.data), from_array(row)).item()
            for row in knowledge.data]
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    return order, sims


def test_top1_simple():
    res = retrieve_top1(from_array([1.0, 0.0]), from_array([[1.0, 0.0], [0.0, 1.0]]))
    assert res.node_index == 0
    assert res.similarity == pytest.approx(1.0)
    assert np.allclose(res.embedding.data, [1.0, 0.0])


def test_top1_tie_breaks_low_index():
    k = from_array([[2.0, 2.0], [2.0, 2.0]])
    res = retrieve_top1(from_array([1.0, 1.0]), k)
    assert res.node_index == 0


def test_top1_matches_brute_force():
    rng = Rng(7)
    knowledge = uniform([200, 16], -1, 1, 8)
    for q in range(50):
        query = uniform([16], -1, 1, 1000 + q)
        res = retrieve_top1(query, knowledge)
        order, sims = brute_force_ranking(query, knowledge)
        assert res.node_index == order[0]
        assert res.similarity == pytest.approx(sims[order[0]], abs=1e-12)


def test_topk_matches_full_sort_with_ties():
    base = uniform([60, 8], -1, 1, 3).data
    base[10] = base[40]  # construct exact ties
    base[11] = base[40]
    knowledge = from_array(base)
    for q in range(20):
        query = uniform([8], -1, 1, 500 + q)
        order, sims = brute_force_ranking(query, knowledge)
        got = retrieve_topk(query, knowledge, 10)
        assert [r.node_index for r in got] == order[:10]


def test_topk_full_is_total_order_and_prefix_consistent():
    knowledge = uniform([15, 4], -1, 1, 9)
    query = uniform([4], -1, 1, 10)
    full = retrieve_topk(query, knowledge, 15)
    sims = [r.similarity for r in full]
    assert sims == sorted(sims, reverse=True)
    for k in (1, 3, 7):
        prefix = retrieve_topk(query, knowledge, k)
        assert [r.node_index for r in prefix] == [r.node_index for r in full[:k]]


def test_topk_k1_equals_top1():
    knowledge = uniform([20, 5], -1, 1, 11)
    query = uniform([5], -1, 1, 12)
    top1 = retrieve_top1(query, knowledge)
    topk = retrieve_topk(query, knowledge, 1)[0]
    assert (top1.node_index, top1.similarity) == (topk.node_index, topk.similarity)


def test_topk_indices_equals_full_stable_sort_on_ties():
    # small-integer tables repeat rows, hold scaled copies (bitwise equal
    # cosines) and zero rows (dead, scoring exactly 0), so most ranks tie
    for seed in range(40):
        rng = np.random.default_rng(seed)
        table = rng.integers(-2, 3, size=(25, 3)).astype(np.float64)
        queries = rng.integers(-2, 3, size=(6, 3)).astype(np.float64)
        scores = cosine_scores(queries, table)
        expected = np.argsort(-scores, axis=1, kind="stable")
        for k in range(1, 26):
            assert np.array_equal(topk_indices(scores, k), expected[:, :k]), (seed, k)
        assert np.array_equal(topk_indices(scores, 1)[:, 0],
                              batch_top1_indices(queries, table))


def test_topk_indices_ranks_nan_first_like_argmax():
    table = uniform([6, 3], -1, 1, 21).data
    table[4, 1] = np.nan
    queries = uniform([3, 3], -1, 1, 22).data
    top = topk_indices(cosine_scores(queries, table), 6)
    assert np.array_equal(top[:, 0], batch_top1_indices(queries, table))
    assert np.all(top[:, 0] == 4)
    assert np.array_equal(np.sort(top, axis=1), np.tile(np.arange(6), (3, 1)))


def test_top1_scale_invariant():
    knowledge = uniform([30, 6], -1, 1, 13)
    query = uniform([6], -1, 1, 14)
    a = retrieve_top1(query, knowledge)
    b = retrieve_top1(from_array(query.data * 37.5), knowledge)
    assert a.node_index == b.node_index


def test_retrieval_errors():
    with pytest.raises(Exception):
        retrieve_top1(from_array([1.0, 2.0]), from_array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        retrieve_topk(from_array([1.0]), from_array([[1.0], [2.0]]), 3)


def test_embedding_is_live_row():
    knowledge = Tensor(uniform([4, 3], -1, 1, 15).data, requires_grad=True)
    query = from_array([1.0, 0.0, 0.0])
    with Tape() as tape:
        res = retrieve_top1(query, knowledge)
        loss = sum_all(res.embedding)
    backward(loss, tape)
    grad_rows = np.abs(knowledge.grad).sum(axis=1)
    assert grad_rows[res.node_index] > 0
    assert np.count_nonzero(grad_rows) == 1


def test_negatives_forced_case():
    assert sample_negatives_batch([0], 2, 1, Rng(3)).tolist() == [[1]]


def test_negatives_all_others():
    got = sample_negatives_batch([2], 6, 5, Rng(4))[0]
    assert sorted(got) == [0, 1, 3, 4, 5]


def test_negatives_never_positive_never_duplicated():
    rng = Rng(5)
    for _ in range(200):
        got = sample_negatives_batch([3], 12, 6, rng)[0].tolist()
        assert 3 not in got
        assert len(set(got)) == 6


def test_negatives_uniform_frequency():
    draws = 100_000
    got = sample_negatives_batch(np.zeros(draws, dtype=np.int64), 11, 1, Rng(6))
    counts = np.bincount(got[:, 0], minlength=11)
    freqs = counts[1:] / draws
    assert np.all(np.abs(freqs - 0.1) <= 0.01)
    assert counts[0] == 0


@pytest.mark.parametrize("n_nodes,count", [(2, 1), (7, 6), (7, 3), (50, 8), (50, 49)])
def test_negatives_batch_equals_full_sort(n_nodes, count):
    # oracle: the former full stable argsort of the same keys
    for seed in range(60):
        positives = np.arange(5) * 3 % n_nodes
        oracle_rng, rng = Rng(seed), Rng(seed)
        keys = splitmix64_array(oracle_rng.next_u64(), 5 * n_nodes).reshape(5, n_nodes)
        keys[np.arange(5), positives] = np.uint64(0xFFFFFFFFFFFFFFFF)
        expected = np.argsort(keys, axis=1, kind="stable")[:, :count]
        got = sample_negatives_batch(positives, n_nodes, count, rng)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        assert rng.next_u64() == oracle_rng.next_u64()  # same stream position


def test_negatives_too_many_rejected():
    with pytest.raises(ValueError):
        sample_negatives_batch([0], 5, 5, Rng(1))


def test_negatives_in_groups_equal_one_call_per_group():
    sizes, n_nodes, count = [5, 3, 1, 4], 9, 4
    positives = np.random.default_rng(0).integers(0, n_nodes, sum(sizes))
    for seed in range(20):
        grouped_rng, separate_rng = Rng(seed), Rng(seed)
        grouped = sample_negatives_batch(positives, n_nodes, count, grouped_rng, sizes)
        bounds = np.cumsum([0] + sizes)
        separate = [sample_negatives_batch(positives[lo:hi], n_nodes, count, separate_rng)
                    for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(grouped, np.concatenate(separate))
        assert grouped_rng.get_state() == separate_rng.get_state()


def test_negative_groups_must_cover_the_rows():
    with pytest.raises(ValueError):
        sample_negatives_batch([0, 1, 2], 5, 2, Rng(1), [2, 2])


def test_scores_with_given_table_norms_are_bit_equal():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(30, 7))
    table[4] = 0.0  # a dead row scores 0 either way
    queries = rng.normal(size=(9, 7))
    assert np.array_equal(cosine_scores(queries, table, row_norms(table)),
                          cosine_scores(queries, table))
    assert np.array_equal(batch_top1_indices(queries, table, row_norms(table)),
                          batch_top1_indices(queries, table))
