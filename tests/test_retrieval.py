"""Retrieval against brute-force oracles, tie-breaking, negative sampling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akgp import retrieval
from akgp.retrieval import (
    batch_top1_indices,
    cosine_scores,
    retrieve_top1,
    retrieve_topk,
    sample_negatives_batch,
    topk_indices,
)
from akgp.rng import Rng, splitmix64
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


def test_negative_subsets_are_uniform():
    # 6 nodes, 3 negatives: each row holds one of the 10 subsets of the 5
    # nodes other than its positive; every positive takes a turn
    rows = 30_000
    positives = np.arange(rows) % 6
    got = sample_negatives_batch(positives, 6, 3, Rng(11))
    assert_valid_negatives(got, positives, 6)
    candidates = got - (got > positives[:, None])  # node -> index among the other 5
    subsets = np.bincount((1 << candidates).sum(axis=1), minlength=32)
    counts = subsets[subsets > 0]
    # 3,000 expected each, a standard deviation of 52: all within 5 of them
    assert len(counts) == 10 and np.all(np.abs(counts - 3000) <= 260), counts


def test_negatives_at_3k_nodes_are_uniform():
    n_nodes, count, rows = 3004, 8, 30_000
    positives = np.random.default_rng(12).integers(0, n_nodes, rows)
    got = sample_negatives_batch(positives, n_nodes, count, Rng(12), [1000] * 30)
    assert_valid_negatives(got, positives, n_nodes)
    observed = np.bincount(got.reshape(-1), minlength=n_nodes)
    # node v is one of the 3,003 candidates of every row whose positive it is not
    expected = (rows - np.bincount(positives, minlength=n_nodes)) * count / (n_nodes - 1)
    chi2 = ((observed - expected) ** 2 / expected).sum()
    # 3,003 degrees of freedom, a standard deviation of 77.5: within 5 of them
    assert abs(chi2 - (n_nodes - 1)) <= 5 * (2 * (n_nodes - 1)) ** 0.5, chi2


def assert_valid_negatives(got, positives, n_nodes):
    assert got.dtype == np.int64 and got.shape[0] == len(positives)
    assert got.min(initial=0) >= 0 and got.max(initial=0) < n_nodes
    assert not (got == np.asarray(positives)[:, None]).any()  # never the positive
    assert (np.diff(np.sort(got, axis=1), axis=1) > 0).all()  # no row repeats a node


def floyd_negatives(positives, n_nodes, count, rng, sizes=None, span=(1 << 64) - 1):
    """Oracle: Floyd's algorithm row by row in plain ints. Each group's
    stream word continues as one splitmix64 sequence: row j's draw i reads
    word j * count + i of it, and a word at or above span // b * b is redrawn
    from the words after the group's, in row order. Returns the rows and the
    number of redrawn words."""
    out, lo, redrawn = [], 0, 0
    for size in sizes or [len(positives)]:
        state = rng.next_u64()
        words = []
        for _ in range(size * count):
            state, word = splitmix64(state)
            words.append(word)
        for j in range(size):
            row = []
            for i in range(count):
                b = n_nodes - count + i
                word = words[j * count + i]
                while word >= span // b * b:
                    state, word = splitmix64(state)
                    redrawn += 1
                t = word % b
                row.append(b - 1 if t in row else t)
            positive = int(positives[lo + j])
            out.append([t + (t >= positive) for t in row])
        lo += size
    return out, redrawn


def assert_sample_equals_oracle(positives, n_nodes, count, seed, sizes=None):
    rng, oracle_rng = Rng(seed), Rng(seed)
    got = sample_negatives_batch(positives, n_nodes, count, rng, sizes)
    assert got.dtype == np.int64 and got.shape == (len(positives), count)
    assert got.tolist() == floyd_negatives(positives, n_nodes, count, oracle_rng, sizes)[0]
    assert rng.get_state() == oracle_rng.get_state()  # one word per group


@pytest.mark.parametrize("n_nodes,count", [(2, 1), (7, 6), (7, 3), (50, 8), (50, 49)])
def test_negatives_batch_equals_floyd_oracle(n_nodes, count):
    for seed in range(60):
        assert_sample_equals_oracle(np.arange(5) * 3 % n_nodes, n_nodes, count, seed)


@pytest.mark.parametrize("count", [1, 8, 64])
@pytest.mark.parametrize("n_nodes", [1100, 3004, 10004])
def test_negatives_at_scale_equal_floyd_oracle(n_nodes, count):
    # uneven groups, an empty one among them, and positives at both ends of
    # the node range
    sizes = [7, 0, 23, 1, 13]
    positives = np.random.default_rng(n_nodes + count).integers(0, n_nodes, sum(sizes))
    positives[:3] = [0, n_nodes - 1, 0]
    positives[-1] = n_nodes - 1
    assert_sample_equals_oracle(positives, n_nodes, count, seed=count, sizes=sizes)
    assert_sample_equals_oracle(positives[:32], n_nodes, count, seed=count + 1)


@pytest.mark.parametrize("n_nodes,count,sizes", [(24, 8, [32]), (9, 4, [5, 0, 3]),
                                                 (3004, 8, [40, 2]), (7, 3, [6, 1])])
def test_rejected_words_are_redrawn_like_the_oracle(n_nodes, count, sizes):
    # a span of 3 * 2**62 - 1 rejects about a quarter of all words, redraws included
    span = 3 * (1 << 62) - 1
    positives = np.random.default_rng(n_nodes).integers(0, n_nodes, sum(sizes))
    rng, oracle_rng = Rng(count), Rng(count)
    with mock.patch.object(retrieval, "_DRAW_SPAN", span):
        got = sample_negatives_batch(positives, n_nodes, count, rng, sizes)
    expected, redrawn = floyd_negatives(positives, n_nodes, count, oracle_rng, sizes, span)
    assert redrawn > sum(sizes) * count // 8
    assert got.tolist() == expected
    assert rng.get_state() == oracle_rng.get_state()
    assert_valid_negatives(got, positives, n_nodes)


@settings(max_examples=150, deadline=None)
@given(n_nodes=st.integers(2, 2500), count=st.integers(1, 80),
       sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       seed=st.integers(0, 2**32))
def test_negatives_equal_floyd_oracle_property(n_nodes, count, sizes, seed):
    count = min(count, n_nodes - 1)
    positives = np.random.default_rng(seed).integers(0, n_nodes, sum(sizes))
    assert_sample_equals_oracle(positives, n_nodes, count, seed, sizes)


def test_many_negatives_hold_little_memory():
    # 4 rows of 2,000 draws are 64 KB; comparing all pairs of one row's
    # draws at once would hold 4 MB
    positives = [0, 1, 2000, 3999]
    tracemalloc.start()
    try:
        got = sample_negatives_batch(positives, 4000, 2000, Rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert_valid_negatives(got, positives, 4000)


@pytest.mark.parametrize("positives,n_nodes,message", [
    ([-1], 5, "row 0: positive -1 is not a node in [0, 5)"),
    ([0, 1, 5, 7], 5, "row 2: positive 5 is not a node in [0, 5)"),
    ([[0, 1]], 5, "positives must be 1-d, got shape (1, 2)"),
    ([3, -4], 3004, "row 1: positive -4 is not a node in [0, 3004)"),
])
def test_negatives_reject_malformed_positives(positives, n_nodes, message):
    rng = Rng(1)
    with pytest.raises(ValueError) as err:
        sample_negatives_batch(positives, n_nodes, 2, rng)
    assert str(err.value) == message
    assert rng.get_state() == Rng(1).get_state()  # the stream did not move


def test_negatives_of_no_rows_still_take_their_words():
    positives = np.zeros(0, dtype=np.int64)
    assert sample_negatives_batch(positives, 3004, 8, Rng(2), [0, 0]).shape == (0, 8)
    assert_sample_equals_oracle(positives, 3004, 8, seed=2, sizes=[0, 0])


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
