"""Tensor primitives: forward values, backward rules vs finite differences,
and the numeric invariants of softmax and cosine similarity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import csr_from_dense
from akgp.tensor import (
    COSINE_EPS,
    CsrMatrix,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    concat,
    constant,
    cosine_select,
    cosine_sim,
    cross_entropy_rows,
    fd_check,
    from_array,
    gather_rows,
    logsumexp_rows,
    matmul,
    mean_all,
    mul,
    relu,
    reshape,
    row_norms,
    scale,
    sigmoid,
    softmax_row,
    spmm,
    stack_cols,
    sub,
    sum_all,
    tanh_act,
    tensor_create,
    uniform,
    xavier,
    zeros,
)


def rand(shape, seed, low=-1.0, high=1.0):
    return uniform(shape, low, high, seed)


# ---------------------------------------------------------------------------
# creation


def test_create_zeros():
    t = tensor_create([2, 2], "zeros")
    assert t.data.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_create_constant():
    t = tensor_create([3], "constant", value=1.5)
    assert t.data.tolist() == [1.5, 1.5, 1.5]


def test_create_xavier_bound():
    t = tensor_create([4, 4], "xavier", seed=7)
    bound = math.sqrt(6.0 / 8.0)
    assert np.all(t.data >= -bound) and np.all(t.data <= bound)


def test_create_deterministic():
    a = tensor_create([5, 3], "uniform", low=-2.0, high=3.0, seed=11)
    b = tensor_create([5, 3], "uniform", low=-2.0, high=3.0, seed=11)
    assert np.array_equal(a.data, b.data)
    c = tensor_create([5, 3], "uniform", low=-2.0, high=3.0, seed=12)
    assert not np.array_equal(a.data, c.data)


def test_create_rejects_bad_args():
    with pytest.raises(ShapeError):
        tensor_create([], "zeros")
    with pytest.raises(ShapeError):
        tensor_create([0, 2], "zeros")
    with pytest.raises(ValueError):
        tensor_create([2], "constant", value=float("nan"))
    with pytest.raises(ValueError):
        tensor_create([2], "uniform", low=1.0, high=0.0, seed=0)


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    eye = from_array(np.eye(2))
    m = from_array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand():
    a = from_array([[1.0, 2.0]])
    b = from_array([[3.0], [4.0]])
    assert matmul(a, b).data.tolist() == [[11.0]]


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(from_array([[1.0, 2.0]]), from_array([[1.0, 2.0]]))


def test_concat_and_add():
    assert concat(from_array([1.0, 2.0]), from_array([3.0])).data.tolist() == [1.0, 2.0, 3.0]
    assert add(from_array([1.0, 2.0]), from_array([0.0, 0.0])).data.tolist() == [1.0, 2.0]


def test_add_bias_broadcast():
    a = from_array([[1.0, 2.0], [3.0, 4.0]])
    b = from_array([10.0, 20.0])
    assert add(a, b).data.tolist() == [[11.0, 22.0], [13.0, 24.0]]


def test_relu_and_sigmoid_values():
    assert relu(from_array([-1.0, 2.0])).data.tolist() == [0.0, 2.0]
    assert sigmoid(from_array([0.0])).item() == 0.5
    # extreme inputs stay finite
    y = sigmoid(from_array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(y.data))


def test_softmax_values():
    assert np.allclose(softmax_row(from_array([0.0, 0.0, 0.0])).data, [1 / 3] * 3)
    y = softmax_row(from_array([1000.0, 0.0]))
    assert np.all(np.isfinite(y.data))
    assert y.data[0] > 0.999999
    y = softmax_row(from_array([1.0, 2.0, 3.0]))
    assert np.allclose(y.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_cosine_sim_values():
    assert cosine_sim(from_array([1.0, 0.0]), from_array([1.0, 0.0])).item() == pytest.approx(1.0)
    assert cosine_sim(from_array([1.0, 0.0]), from_array([0.0, 1.0])).item() == pytest.approx(0.0)
    got = cosine_sim(from_array([1.0, 1.0]), from_array([1.0, 0.0])).item()
    assert got == pytest.approx(0.70711, abs=1e-5)


def test_cosine_sim_zero_norm():
    z = from_array([0.0, 0.0])
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        c = cosine_sim(a, z)
        loss = sum_all(c)
    assert c.item() == 0.0
    backward(loss, tape)
    assert np.array_equal(a.grad, [0.0, 0.0])


# ---------------------------------------------------------------------------
# backward engine


def test_backward_sum_gradient():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
    backward(loss, tape)
    assert x.grad.tolist() == [1.0, 1.0, 1.0]


def test_backward_accumulates_on_repeat():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    backward(loss, tape)
    first = x.grad.copy()
    backward(loss, tape)
    assert np.array_equal(x.grad, 2.0 * first)


def test_backward_fills_leaves_only():
    w = Tensor(rand([3, 2], 1).data, requires_grad=True)
    b = Tensor([0.5, -0.5], requires_grad=True)
    x = rand([4, 3], 2)
    with Tape() as tape:
        hidden = add(matmul(x, w), b)
        act = tanh_act(hidden)
        loss = sum_all(act)
    backward(loss, tape)
    assert w.grad is not None and b.grad is not None
    assert hidden.grad is None and act.grad is None and loss.grad is None
    assert x.grad is None
    assert np.allclose(b.grad, (1.0 - act.data ** 2).sum(axis=0), rtol=0, atol=1e-12)


def test_backward_rules_skip_inputs_without_grad():
    w = Tensor(rand([3, 2], 1).data, requires_grad=True)
    x, bias = rand([4, 3], 2), rand([2], 3)
    with Tape() as tape:
        add(matmul(x, w), bias)
    g = np.ones((4, 2))
    grad_x, grad_w = tape.records[0].backward(g)
    assert grad_x is None and np.array_equal(grad_w, x.data.T @ g)
    assert tape.records[1].backward(g)[1] is None
    with Tape() as tape:
        cosine_select(Tensor(x.data, requires_grad=True), rand([5, 3], 4),
                      [[0, 2], [1, 1], [4, 3], [2, 0]])
    grad_q, grad_table = tape.records[0].backward(np.ones((4, 2)))
    assert grad_q.shape == (4, 3) and grad_table is None


def test_cosine_select_with_table_norms_is_bit_equal():
    table = rand([7, 4], 5)
    table.data[3] = 0.0  # a dead row scores 0 either way
    indices = [[0, 3, 6], [3, 3, 1], [5, 2, 0]]
    outputs = []
    for norms in (None, row_norms(table.data)):
        queries = Tensor(rand([3, 4], 6).data, requires_grad=True)
        with Tape() as tape:
            loss = sum_all(cosine_select(queries, table, indices, norms))
        backward(loss, tape)
        outputs.append((loss.data.tobytes(), queries.grad.tobytes()))
    assert outputs[0] == outputs[1]


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(TapeError):
        backward(y, tape)


def test_backward_rejects_off_tape_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        _ = sum_all(x)
    loss = sum_all(x)  # built after the tape closed
    with pytest.raises(TapeError):
        backward(loss, tape)


def test_concat_routes_gradients():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    w = from_array([4.0, 5.0, 6.0])
    with Tape() as tape:
        loss = sum_all(mul(concat(a, b), w))
    backward(loss, tape)
    assert a.grad.tolist() == [4.0, 5.0]
    assert b.grad.tolist() == [6.0]


def test_gather_rows_scatter_adds():
    x = Tensor([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(gather_rows(x, [0, 2, 0]))
    backward(loss, tape)
    assert x.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]


def test_spmm_matches_dense_product():
    # rows normalized by degree + 1, so the matrix is not symmetric
    dense = np.array([[1 / 3, 1 / 3, 1 / 3], [1 / 2, 1 / 2, 0.0], [1 / 2, 0.0, 1 / 2]])
    x = Tensor(uniform([3, 2], -1, 1, 4).data, requires_grad=True)
    w = uniform([3, 2], -1, 1, 5)
    with Tape() as tape:
        y = spmm(csr_from_dense(dense), x)
        loss = sum_all(mul(y, w))
    assert tape.records[0].inputs == (x,)  # the constant matrix is no tape input
    backward(loss, tape)
    assert np.allclose(y.data, dense @ x.data, rtol=0, atol=1e-12)
    assert np.allclose(x.grad, dense.T @ w.data, rtol=0, atol=1e-12)


def test_csr_rejects_empty_row():
    with pytest.raises(ShapeError):
        CsrMatrix(np.array([0, 1, 1]), np.array([0]), np.array([1.0]), np.array([1.0]))


def test_no_recording_without_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tape = Tape()
    y = sum_all(x)  # outside any with-block
    assert tape.records == []
    assert y.requires_grad


def test_tape_isolation_per_thread():
    import threading

    results = {}

    def worker(name, seed):
        x = Tensor(rand([4], seed).data, requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(loss, tape)
        results[name] = (x.data.copy(), x.grad.copy())

    threads = [threading.Thread(target=worker, args=(i, 10 + i)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for _, (data, grad) in results.items():
        assert np.allclose(grad, 2.0 * data)


# ---------------------------------------------------------------------------
# finite-difference oracle for every primitive


def quad_loss(seed, shape):
    """A fixed random projection making any op's output a scalar."""
    w = rand(shape, seed + 9001).data

    def project(y):
        return sum_all(mul(y, from_array(w)))

    return project


def test_fd_check_analytic_case():
    report = fd_check(lambda t: sum_all(mul(t, t)), from_array([1.0, -2.0]))
    assert report.passed
    assert np.allclose(report.fd_grad, [2.0, -4.0], atol=1e-6)


def test_fd_check_detects_corruption():
    # A sum that deliberately reports the wrong backward rule.
    from akgp.tensor import _emit

    def bad_sum(x):
        def bwd(g):
            return (np.full(x.shape, float(g) * 3.0),)
        return _emit(np.asarray(x.data.sum()), (x,), bwd)

    report = fd_check(bad_sum, from_array([1.0, 2.0]))
    assert not report.passed
    assert report.max_rel_err > 0.1
    assert report.worst_index is not None


OP_CASES = [
    ("matmul_a", lambda x, s: matmul(x, rand([4, 3], s)), [5, 4]),
    ("matmul_b", lambda x, s: matmul(rand([5, 4], s), x), [4, 3]),
    ("add", lambda x, s: add(x, rand([3, 4], s)), [3, 4]),
    ("add_bias", lambda x, s: add(rand([3, 4], s), x), [4]),
    ("sub", lambda x, s: sub(x, rand([3, 4], s)), [3, 4]),
    ("mul", lambda x, s: mul(x, rand([3, 4], s)), [3, 4]),
    ("scale", lambda x, s: scale(x, 1.7), [3, 4]),
    ("concat_left", lambda x, s: concat(x, rand([3, 2], s)), [3, 4]),
    ("concat_right", lambda x, s: concat(rand([3, 2], s), x), [3, 4]),
    ("reshape", lambda x, s: reshape(x, [2, 6]), [3, 4]),
    ("gather_rows", lambda x, s: gather_rows(x, [2, 0, 2, 1]), [4, 3]),
    ("relu", lambda x, s: relu(x), [3, 4]),
    ("tanh_act", lambda x, s: __import__("akgp.tensor", fromlist=["tanh_act"]).tanh_act(x), [3, 4]),
    ("sigmoid", lambda x, s: sigmoid(x), [3, 4]),
    ("softmax_row", lambda x, s: softmax_row(x), [6]),
    ("sum_all", lambda x, s: reshape(sum_all(x), [1]), [3, 4]),
    ("mean_all", lambda x, s: reshape(mean_all(x), [1]), [3, 4]),
    ("logsumexp_rows", lambda x, s: logsumexp_rows(x), [3, 5]),
    ("cross_entropy_rows", lambda x, s: cross_entropy_rows(x, [1, 0, 3]), [3, 4]),
    ("cosine_sim_a", lambda x, s: reshape(cosine_sim(x, rand([5], s)), [1]), [5]),
    ("cosine_sim_b", lambda x, s: reshape(cosine_sim(rand([5], s), x), [1]), [5]),
    (
        "cosine_select_q",
        lambda x, s: cosine_select(x, rand([6, 5], s), [[0, 3], [5, 5], [2, 1]]),
        [3, 5],
    ),
    (
        "cosine_select_t",
        lambda x, s: cosine_select(rand([3, 5], s), x, [[0, 3], [5, 5], [2, 1]]),
        [6, 5],
    ),
    ("stack_cols", lambda x, s: stack_cols([reshape(x, [6]), rand([6], s)]), [6]),
]


@pytest.mark.parametrize("name,op,shape", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_primitive_gradients_match_fd(name, op, shape):
    for seed in range(5):
        point = rand(shape, 100 + seed).data
        if name == "relu":
            point = point + np.where(point >= 0, 1e-3, -1e-3)  # keep clear of the kink
        project = quad_loss(seed, out_shape(op, shape, seed))

        def f(t, _op=op, _seed=seed, _project=project):
            return _project(_op(t, _seed))

        report = fd_check(f, from_array(point))
        assert report.passed, f"{name} seed {seed}: {report}"


def out_shape(op, in_shape, seed):
    y = op(from_array(rand(in_shape, 999 + seed).data), seed)
    return list(y.shape) if y.shape else [1]


# ---------------------------------------------------------------------------
# numeric invariants


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_sums_to_one(values):
    y = softmax_row(from_array(values))
    assert abs(y.data.sum() - 1.0) <= 1e-12
    assert np.all(y.data > 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=6), st.randoms())
def test_softmax_permutation_equivariant(values, pyrandom):
    perm = list(range(len(values)))
    pyrandom.shuffle(perm)
    direct = softmax_row(from_array([values[i] for i in perm])).data
    permuted = softmax_row(from_array(values)).data[perm]
    assert np.allclose(direct, permuted, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.floats(0.01, 100.0),
)
# scaling carries a across the dead-norm boundary: 0 unscaled, 1 scaled
@example(a_vals=[0.0, 4.97e-14, 0.0], b_vals=[0.0, 1.0, 0.0], c=21.0)
def test_cosine_invariants(a_vals, b_vals, c):
    a, b = from_array(a_vals), from_array(b_vals)
    sim = cosine_sim(a, b).item()
    assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9
    if np.linalg.norm(a_vals) > 1e-6:
        assert cosine_sim(a, a).item() == pytest.approx(1.0, abs=1e-9)
    scaled_vals = np.asarray(a_vals) * c
    scaled = cosine_sim(from_array(scaled_vals), b).item()
    norm_a, norm_ca, norm_b = (np.linalg.norm(v) for v in (a_vals, scaled_vals, b_vals))
    # an operand with norm below COSINE_EPS scores 0 (the documented dead-norm rule)
    if norm_a < COSINE_EPS or norm_b < COSINE_EPS:
        assert sim == 0.0
    if norm_ca < COSINE_EPS or norm_b < COSINE_EPS:
        assert scaled == 0.0
    elif norm_a >= COSINE_EPS:
        assert scaled == pytest.approx(sim, abs=1e-9)
    else:
        live = np.dot(scaled_vals, b_vals) / max(norm_ca * norm_b, COSINE_EPS)
        assert scaled == pytest.approx(live, abs=1e-9)


def test_all_ops_finite_on_finite_inputs():
    x = rand([4, 6], 3, low=-30.0, high=30.0)
    for op in (relu, sigmoid, logsumexp_rows):
        assert np.all(np.isfinite(op(x).data))
    assert np.all(np.isfinite(cross_entropy_rows(scale(x, 100.0), [0, 1, 2, 3]).data))
