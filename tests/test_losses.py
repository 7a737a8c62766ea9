"""Loss values against analytic and loop-based oracles."""

import math

import numpy as np
import pytest

from akgp.losses import (
    DENOMINATOR_MODES,
    align_loss_batch,
    align_loss_rows,
    loss_align,
    loss_cls,
    loss_cls_batch,
    loss_gen,
    loss_total,
)
from akgp.tensor import (
    Tensor,
    fd_check,
    from_array,
    mul,
    reshape,
    sum_all,
    uniform,
    zeros,
)


def unit(vec):
    v = np.asarray(vec, dtype=np.float64)
    return from_array(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# alignment


@pytest.mark.parametrize("n_neg", [1, 7, 31])
def test_align_equal_similarities_is_log_n_plus_1(n_neg):
    # positive and negatives all identical to the query: every similarity is 1
    m = unit([1.0, 2.0, 3.0])
    loss = loss_align(m, m, [m] * n_neg, tau=0.07)
    assert loss.item() == pytest.approx(math.log(n_neg + 1), abs=1e-9)


def test_align_orthogonal_negatives_matches_direct_formula():
    tau = 0.07
    m = from_array([1.0, 0.0, 0.0])
    pos = from_array([2.0, 0.0, 0.0])         # cos = 1
    negs = [from_array([0.0, 1.0, 0.0]), from_array([0.0, 0.0, 3.0])]  # cos = 0
    loss = loss_align(m, pos, negs, tau)
    expected = -math.log(math.exp(1 / tau) / (math.exp(1 / tau) + 2 * math.exp(0.0)))
    assert loss.item() == pytest.approx(expected, abs=1e-9)


def test_align_positive_and_nonnegative():
    m = uniform([5], -1, 1, 1)
    pos = uniform([5], -1, 1, 2)
    negs = [uniform([5], -1, 1, 3 + i) for i in range(4)]
    assert loss_align(m, pos, negs, tau=0.5).item() > 0.0


def test_align_decreases_as_positive_similarity_rises():
    negs = [unit([0.0, 1.0, 0.0])]
    pos = unit([1.0, 0.0, 0.0])
    losses = []
    for angle in (0.9, 0.5, 0.1):
        m = unit([math.cos(angle), math.sin(angle), 0.0])
        losses.append(loss_align(m, pos, negs, tau=0.2).item())
    assert losses[0] > losses[1] > losses[2]


def test_align_negatives_only_mode():
    tau = 0.3
    m = unit([1.0, 1.0, 0.0])
    pos = unit([1.0, 0.0, 0.0])
    negs = [unit([0.0, 1.0, 0.0]), unit([0.0, 0.0, 1.0])]
    got = loss_align(m, pos, negs, tau, denominator="negatives_only").item()
    cos_pos = math.cos(math.pi / 4)
    cos_negs = [math.cos(math.pi / 4), 0.0]
    expected = math.log(sum(math.exp(c / tau) for c in cos_negs)) - cos_pos / tau
    assert got == pytest.approx(expected, abs=1e-9)


def test_align_input_validation():
    m = unit([1.0, 0.0])
    with pytest.raises(ValueError):
        loss_align(m, m, [], tau=0.07)
    with pytest.raises(ValueError):
        loss_align(m, m, [m], tau=0.0)


@pytest.mark.parametrize("denominator", ["positive_included", "negatives_only"])
def test_batch_align_matches_per_example_loop(denominator):
    knowledge = uniform([12, 6], -1, 1, 40)
    fused = uniform([5, 6], -1, 1, 41)
    pos = np.array([0, 3, 7, 7, 11])
    neg = np.array([[1, 2], [4, 5], [6, 8], [9, 10], [0, 1]])
    batch_val = align_loss_batch(fused, knowledge, pos, neg, 0.07, denominator).item()

    per_example = []
    for i in range(5):
        m = from_array(fused.data[i])
        k_pos = from_array(knowledge.data[pos[i]])
        k_negs = [from_array(knowledge.data[j]) for j in neg[i]]
        per_example.append(loss_align(m, k_pos, k_negs, 0.07, denominator).item())
    assert batch_val == pytest.approx(np.mean(per_example), abs=1e-12)


@pytest.mark.parametrize("denominator", DENOMINATOR_MODES)
def test_align_rows_do_not_depend_on_their_batch(denominator):
    rng = np.random.default_rng(8)
    knowledge = Tensor(rng.normal(size=(20, 6)))
    fused = rng.normal(size=(12, 6))
    pos = rng.integers(0, 20, 12)
    neg = rng.integers(0, 20, (12, 5))
    whole = align_loss_rows(Tensor(fused), knowledge, pos, neg, 0.07, denominator).data
    for lo, hi in ((0, 5), (5, 12), (3, 4)):
        part = align_loss_rows(Tensor(fused[lo:hi]), knowledge, pos[lo:hi], neg[lo:hi],
                               0.07, denominator).data
        assert np.array_equal(part, whole[lo:hi])
        mean = align_loss_batch(Tensor(fused[lo:hi]), knowledge, pos[lo:hi], neg[lo:hi],
                                0.07, denominator).item()
        assert mean == float(whole[lo:hi].mean())


def test_batch_align_gradient_passes_fd():
    knowledge = uniform([8, 4], -1, 1, 50)
    pos = np.array([0, 2, 5])
    neg = np.array([[1, 3], [4, 6], [7, 1]])

    def f_fused(x):
        return align_loss_batch(x, knowledge, pos, neg, 0.1)

    assert fd_check(f_fused, uniform([3, 4], -1, 1, 51)).passed

    fused = uniform([3, 4], -1, 1, 52)

    def f_knowledge(k):
        return align_loss_batch(fused, k, pos, neg, 0.1)

    assert fd_check(f_knowledge, uniform([8, 4], -1, 1, 53)).passed


# ---------------------------------------------------------------------------
# classification / generation


@pytest.mark.parametrize("n_classes", [2, 4, 10])
def test_cls_uniform_logits(n_classes):
    assert loss_cls(zeros([n_classes]), 0).item() == pytest.approx(
        math.log(n_classes), abs=1e-12)


def test_cls_confident_correct_logits():
    assert loss_cls(from_array([10.0, -10.0]), 0).item() == pytest.approx(2.061e-9, rel=1e-3)


def test_cls_shift_invariant():
    logits = from_array([0.3, -1.2, 2.0])
    base = loss_cls(logits, 2).item()
    shifted = loss_cls(from_array(logits.data + 123.0), 2).item()
    assert shifted == pytest.approx(base, abs=1e-9)


def test_cls_gradient_passes_fd():
    assert fd_check(lambda z: loss_cls(z, 1), uniform([4], -2, 2, 60)).passed


def test_cls_label_out_of_range():
    with pytest.raises(IndexError):
        loss_cls(zeros([3]), 3)


def test_gen_t1_is_bitwise_loss_cls():
    logits = uniform([5], -2, 2, 61)
    a = loss_cls(logits, 3).item()
    b = loss_gen(reshape(logits, (1, 5)), [3]).item()
    assert a == b  # bit-for-bit


def test_gen_uniform_logits_sums_steps():
    assert loss_gen(zeros([3, 5]), [0, 1, 2]).item() == pytest.approx(
        3 * math.log(5), abs=1e-12)


def test_gen_matches_per_step_loop():
    logits = uniform([4, 6], -3, 3, 62)
    tokens = [2, 0, 5, 1]
    total = loss_gen(logits, tokens).item()
    looped = sum(loss_cls(from_array(logits.data[t]), tokens[t]).item()
                 for t in range(4))
    assert total == pytest.approx(looped, abs=1e-12)


def test_gen_validation():
    with pytest.raises(Exception):
        loss_gen(zeros([2, 4]), [0])
    with pytest.raises(IndexError):
        loss_gen(zeros([1, 4]), [4])


def test_cls_batch_is_mean_of_rows():
    logits = uniform([6, 4], -2, 2, 63)
    labels = [0, 1, 2, 3, 1, 0]
    batch = loss_cls_batch(logits, labels).item()
    looped = np.mean([loss_cls(from_array(logits.data[i]), labels[i]).item()
                      for i in range(6)])
    assert batch == pytest.approx(looped, abs=1e-12)


# ---------------------------------------------------------------------------
# combination


def test_total_weights():
    assert loss_total(Tensor(np.asarray(0.5)), Tensor(np.asarray(1.5)), 0.0, 1.0).item() == 1.5
    assert loss_total(Tensor(np.asarray(0.5)), Tensor(np.asarray(1.5)), 1.0, 1.0).item() == 2.0


def test_total_gradient_splits_linearly():
    w = uniform([4], -1, 1, 70)

    def f(x):
        align = sum_all(mul(from_array(np.ones(4)), x))
        task = sum_all(mul(x, x))
        return loss_total(align, task, 0.7, 1.3)

    report = fd_check(f, w)
    assert report.passed
    expected = 0.7 * np.ones(4) + 1.3 * 2.0 * w.data
    assert np.allclose(report.autodiff_grad, expected, atol=1e-9)


def test_total_rejects_non_finite():
    with pytest.raises(ValueError):
        loss_total(Tensor(np.asarray(float("nan"))), Tensor(np.asarray(1.0)), 1.0, 1.0)
