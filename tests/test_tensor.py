"""Tensor primitives: forward values, backward rules vs finite differences,
and the numeric invariants of softmax and cosine similarity."""

import contextlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import csr_from_dense, csr_rows_row_major, expand
from akgp.config import WorldConfig
from akgp.kg import build_graph
from akgp.synthbench import gen_world
from akgp import tensor as tensor_module
from akgp.gradcheck import _op_cases
from akgp.tensor import (
    COSINE_EPS,
    SLOT_ROW_MAX,
    CsrMatrix,
    RowBlock,
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
    linear,
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
from akgp.tensor import _csr_rows, _emit, _scatter_rows


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
    with pytest.raises(ShapeError):
        add(rand([3, 4], 1), rand([4], 2))  # a bias row goes through linear


def test_linear_bit_equal_to_numpy():
    x, w, b = (Tensor(rand(shape, seed).data, requires_grad=True)
               for shape, seed in (([5, 4], 1), ([4, 3], 2), ([3], 3)))
    g = rand([5, 3], 4).data
    with Tape() as tape:
        y = linear(x, w, b)
    assert len(tape.records) == 1
    assert y.data.tobytes() == (x.data @ w.data + b.data).tobytes()
    grads = tape.records[0].backward(g)
    expected = (g @ w.data.T, x.data.T @ g, g.sum(axis=0))
    assert [gi.tobytes() for gi in grads] == [e.tobytes() for e in expected]


@pytest.mark.parametrize("d_in, d_out", [(16, 32), (32, 32), (4, 3)])
def test_linear_rows_bit_equal_to_the_whole_map(d_in, d_out):
    # a product of fewer rows may take another BLAS kernel (one row, or
    # few rows of a transposed operand), so each of these row counts is tried
    n = 300
    x, w, b = (Tensor(rand(shape, seed).data, requires_grad=True)
               for shape, seed in (([n, d_in], 1), ([d_in, d_out], 2), ([d_out], 3)))
    g = rand([n, d_out], 4).data
    rng = np.random.default_rng(d_in)
    for k in (1, 2, 7, 40, 150, n):
        rows = RowBlock(np.sort(rng.choice(n, k, replace=False)), n, None)
        g[np.setdiff1d(np.arange(n), rows.index)] = 0.0
        with Tape() as tape:
            whole = linear(x, w, b)
            part = linear(Tensor(x.data[rows.index], requires_grad=True), w, b, rows)
        assert part.data.tobytes() == whole.data[rows.index].tobytes()
        whole_grads = tape.records[0].backward(g)
        part_grads = tape.records[1].backward(g[rows.index])
        assert part_grads[0].tobytes() == whole_grads[0][rows.index].tobytes()
        assert [gi.tobytes() for gi in part_grads[1:]] == \
            [gi.tobytes() for gi in whole_grads[1:]]


@pytest.mark.parametrize("shapes", [
    ([5], [5, 3], [3]), ([2, 5], [4, 3], [3]), ([2, 4], [4, 3], [2]), ([2, 4], [4, 3], [1, 3]),
])
def test_linear_shape_errors(shapes):
    with pytest.raises(ShapeError):
        linear(*(zeros(shape) for shape in shapes))


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
        hidden = linear(x, w, b)
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
        linear(x, w, bias)
    g = np.ones((4, 2))
    grad_x, grad_w, grad_bias = tape.records[0].backward(g)
    assert grad_x is None and grad_bias is None and np.array_equal(grad_w, x.data.T @ g)
    with Tape() as tape:
        cosine_select(Tensor(x.data, requires_grad=True), rand([5, 3], 4),
                      [[0, 2], [1, 1], [4, 3], [2, 0]])
    grad_q, grad_table = tape.records[0].backward(np.ones((4, 2)))
    assert grad_q.shape == (4, 3) and grad_table is None


def test_cosine_select_is_bit_equal_from_a_short_or_a_padded_table():
    # 9 rows are selected: the 7-row table gives their norms from its own,
    # the same rows padded to 12 from the selection
    rows = rand([7, 4], 5).data
    rows[3] = 0.0  # a dead row scores 0 either way
    indices = [[0, 3, 6], [3, 3, 1], [5, 2, 0]]
    outputs = []
    for table_rows in (rows, np.vstack([rows, rand([5, 4], 7).data])):
        queries = Tensor(rand([3, 4], 6).data, requires_grad=True)
        table = Tensor(table_rows, requires_grad=True)
        with Tape() as tape:
            sims = cosine_select(queries, table, indices)
            loss = sum_all(mul(sims, rand([3, 3], 8)))
        backward(loss, tape)
        outputs.append((sims.data.tobytes(), queries.grad.tobytes(),
                        table.grad[:7].tobytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("width", [1, 5, 16, 32, 33, 100])
def test_table_row_norms_equal_the_norms_of_selected_rows(width):
    # cosine_select takes a table's own row norms when it has fewer rows than
    # the selection
    rng = np.random.default_rng(width)
    table = rng.standard_normal((6, width)) * 10.0 ** rng.uniform(-150, 150, (6, 1))
    idx = rng.integers(0, 6, (4, 5))
    assert row_norms(table)[idx].tobytes() == row_norms(table[idx]).tobytes()


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
        y = spmm(csr_from_dense(dense != 0, dense.max(axis=1)), x)
        loss = sum_all(mul(y, w))
    assert tape.records[0].inputs == (x,)  # the constant matrix is no tape input
    backward(loss, tape)
    assert np.allclose(y.data, dense @ x.data, rtol=0, atol=1e-12)
    assert np.allclose(x.grad, dense.T @ w.data, rtol=0, atol=1e-12)


def _star_pattern(lengths, seed):
    """A symmetric pattern of stars whose centre rows hold ``lengths``
    entries (each leaf row holds 2), with the nodes shuffled so that the
    lengths come in no order."""
    n = sum(lengths)
    perm = np.random.default_rng(seed).permutation(n)
    pattern = np.eye(n, dtype=bool)
    centre = 0
    for length in lengths:
        leaves = perm[centre + 1:centre + length]
        pattern[perm[centre], leaves] = pattern[leaves, perm[centre]] = True
        centre += length
    return pattern


def _default_world_pattern():
    world = gen_world(WorldConfig(), 6, 1234)
    return expand(build_graph(world.triples).adjacency) != 0


# Each pattern with a check of its row lengths. numpy's pairwise sum
# changes strategy past 8 and past 128 terms.
CSR_PATTERNS = {
    # every length from 1 to 16, interleaved, and two hubs
    "mixed": (lambda seed: _star_pattern(list(range(1, 17)) + [129, 140], seed),
              lambda lengths: lengths == set(range(1, 17)) | {129, 140}),
    "default world": (lambda seed: _default_world_pattern(),
                      lambda lengths: max(lengths) <= SLOT_ROW_MAX),
    "no short row": (lambda seed: np.ones((10, 10), dtype=bool),
                     lambda lengths: min(lengths) > SLOT_ROW_MAX),
}


def _signed_scale(n, seed):
    """One scale per row, of either sign."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)


def _row_subsets(n, seed):
    """Row sets to take blocks of: one row, a random share, all rows."""
    rng = np.random.default_rng(seed)
    return [np.array([rng.integers(n)]),
            np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9)), np.arange(n)]


def _assert_csr_rows_bit_equal(pattern, scale, x):
    """The product and its transpose against the row-major reduction; and
    blocks of rows of each against its rows. The transpose's product, as
    spmm's backward computes it, sums the pattern's rows of ``x`` scaled
    once per row; the reduction scales each gathered entry."""
    m = csr_from_dense(pattern, scale)
    with np.errstate(invalid="ignore"):
        scaled_x = x * m.scale[:, None]
    for values, operand, scaled in ((m.values, x, True), (m.scale[m.indices], scaled_x, False)):
        with np.errstate(invalid="ignore"):  # inf - inf
            got = _csr_rows(m, operand, scaled)
            want = csr_rows_row_major(m, values, x)
        assert got.shape == want.shape == (m.n, x.shape[1])
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        for rows in _row_subsets(m.n, len(x)):
            block = m.row_block(rows)
            assert (block.index is rows) and block.n == m.n
            with np.errstate(invalid="ignore"):
                part = _csr_rows(block.matrix, operand, scaled)
            assert part.flags.c_contiguous
            assert part.tobytes() == got[rows].tobytes()


def _fill(x, fill, rng):
    if fill == "special":
        cells = rng.random(x.shape) < 0.05
        x[cells] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], cells.sum())
    elif fill == "signed nan":  # NaNs of both signs and several payloads meet
        cells = rng.random(x.shape) < 0.3
        bits = rng.choice([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                           0xFFF80000DEADBEEF], cells.sum()).astype(np.uint64)
        x[cells] = bits.view(np.float64)
    elif fill == "negative zero":
        x[:] = -0.0
    return x


@pytest.mark.parametrize("width", [1, 16, 32])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
@pytest.mark.parametrize("fill", ["finite", "special", "signed nan", "negative zero"])
def test_csr_rows_bit_equal_to_row_major_reduction(width, layout, fill):
    for make, lengths_ok in CSR_PATTERNS.values():
        pattern = make(width)
        assert lengths_ok(set(np.count_nonzero(pattern, axis=1).tolist()))
        rng = np.random.default_rng(width + 1)
        full = _fill(rng.uniform(-1.0, 1.0, (len(pattern), 2 * width)), fill, rng)
        x = {"contiguous": np.ascontiguousarray(full[:, :width]),
             "strided": full[:, ::2],
             "transposed": np.asfortranarray(full[:, :width])}[layout]
        _assert_csr_rows_bit_equal(pattern, _signed_scale(len(pattern), width), x)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       width=st.sampled_from([1, 16, 32]),
       fill=st.sampled_from(["finite", "special", "signed nan", "negative zero"]))
def test_csr_rows_bit_equal_on_random_patterns(n, density, seed, width, fill):
    rng = np.random.default_rng(seed)
    pattern = rng.random((n, n)) < density
    _assert_csr_rows_bit_equal(pattern | pattern.T | np.eye(n, dtype=bool), _signed_scale(n, seed),
                               _fill(rng.uniform(-1.0, 1.0, (n, width)), fill, rng))


@settings(max_examples=150, deadline=None)
@given(n_rows=st.integers(1, 12), picks=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       width=st.sampled_from([1, 3, 32]),
       fill=st.sampled_from(["finite", "special", "signed nan", "negative zero"]))
def test_scatter_rows_bit_equal_to_add_at(n_rows, picks, seed, width, fill):
    # gather_rows' and cosine_select's backward; few rows, so indices repeat
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_rows, picks)
    rows = _fill(rng.uniform(-1.0, 1.0, (picks, width)), fill, rng)
    want = np.zeros((n_rows, width))
    with np.errstate(invalid="ignore"):  # inf - inf
        np.add.at(want, idx, rows)
        got = _scatter_rows(idx, rows, n_rows)
    assert got.tobytes() == want.tobytes()


def test_row_block_columns_and_csr_arrays():
    pattern = CSR_PATTERNS["mixed"][0](3)
    scale = _signed_scale(len(pattern), 3)
    adj = csr_from_dense(pattern, scale)
    rows = np.array([0, 5, 17, 40, 41, len(pattern) - 1])
    block = adj.row_block(rows)
    assert np.array_equal(block.columns(), np.flatnonzero(pattern[rows].any(axis=0)))
    assert np.array_equal(block.matrix.scale, scale[rows])
    assert np.array_equal(expand(block.matrix, n_cols=len(pattern)), (pattern * scale[:, None])[rows])


def _star_chain():
    # the star-and-chain graph of gradcheck's spmm case: degrees 4, 3, 2 and 1
    return build_graph([("hub", "r", leaf) for leaf in "abcd"]
                       + [("a", "r", "x"), ("x", "r", "y")]).adjacency


def _row_cases():
    """(name, build) pairs like gradcheck's op cases, for the row options
    of spmm and linear; build(seed) returns (f, probe_point)."""
    adj = _star_chain()
    rows, x_rows = adj.row_block(np.array([1, 4])), adj.row_block(np.array([0, 2, 5, 6]))
    within = adj.row_block(np.array([6]))  # its columns are rows of x_rows
    lin_rows = RowBlock(np.array([0, 3, 4]), 5, None)

    def case(op, shape):
        def build(seed):
            w = rand(list(op(rand(shape, seed), seed).shape), seed + 77)
            return (lambda x: sum_all(mul(op(x, seed), w))), rand(shape, seed)
        return build

    return [
        ("spmm.rows", case(lambda x, s: spmm(adj, x, rows), [7, 3])),
        ("spmm.x_rows", case(lambda x, s: spmm(adj, x, within, x_rows), [4, 3])),
        ("linear.x.rows", case(
            lambda x, s: linear(x, rand([4, 3], s + 1), rand([3], s + 2), lin_rows), [3, 4])),
        ("linear.w.rows", case(
            lambda x, s: linear(rand([3, 4], s + 1), x, rand([3], s + 2), lin_rows), [4, 3])),
        ("linear.b.rows", case(
            lambda x, s: linear(rand([3, 4], s + 1), rand([4, 3], s + 2), x, lin_rows), [3])),
    ]


@pytest.mark.parametrize("name,build", _row_cases(), ids=[name for name, _ in _row_cases()])
def test_row_options_match_fd(name, build):
    for seed in range(5):
        f, probe = build(seed)
        report = fd_check(f, probe)
        assert report.passed, f"{name} seed {seed}: {report}"


def test_row_options_check_shapes():
    adj = _star_chain()
    block = adj.row_block(np.array([1, 4]))
    with pytest.raises(ShapeError):
        spmm(adj, rand([7, 3], 0), block, block)  # x holds 2 rows, not 7
    with pytest.raises(ShapeError):
        linear(rand([3, 4], 0), rand([4, 3], 1), rand([3], 2), block)


def test_csr_rejects_empty_row():
    with pytest.raises(ShapeError):
        CsrMatrix(np.array([0, 1, 1]), np.array([0]), np.array([1.0, 1.0]))


def test_no_recording_without_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tape = Tape()
    y = sum_all(x)  # outside any with-block
    assert tape.records == []
    assert y.requires_grad


def test_nested_tapes_record_innermost():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as outer:
        a = mul(x, x)
        with Tape() as inner:
            b = sum_all(a)
        c = sum_all(a)
        with pytest.raises(RuntimeError):
            with Tape() as left:
                d = mul(x, x)
                raise RuntimeError("leaves the tape")
        e = sum_all(x)
    sum_all(x)  # no tape is active

    def recorded(tape):
        return [id(rec.output) for rec in tape.records]

    assert recorded(outer) == [id(a), id(c), id(e)]
    assert recorded(inner) == [id(b)]
    assert recorded(left) == [id(d)]


# ---------------------------------------------------------------------------
# finite-difference oracle for every primitive


def _recording_primitives() -> set[str]:
    """The functions of akgp.tensor that record through _emit."""
    return {name for name, fn in vars(tensor_module).items()
            if inspect.isfunction(fn) and fn.__module__ == tensor_module.__name__
            and name != "_emit" and "_emit(" in inspect.getsource(fn)}


def test_every_recording_primitive_has_a_gradcheck_case():
    """``akgp check-grads`` runs gradcheck's op cases, so each function here
    that records through _emit needs one there."""
    recording = _recording_primitives()
    assert {"add", "linear", "spmm", "cosine_select"} <= recording
    covered = {name.partition(".")[0] for name, _ in _op_cases()}
    assert sorted(recording - covered) == []


# one call of each recording primitive: (function of its tensor inputs, their shapes)
PRIMITIVE_CALLS = {
    "matmul": (matmul, [(2, 3), (3, 4)]),
    "linear": (linear, [(2, 3), (3, 4), (4,)]),
    "add": (add, [(2, 3), (2, 3)]),
    "sub": (sub, [(2, 3), (2, 3)]),
    "mul": (mul, [(2, 3), (2, 3)]),
    "scale": (lambda x: scale(x, -2.5), [(2, 3)]),
    "concat": (concat, [(2, 3), (2, 2)]),
    "reshape": (lambda x: reshape(x, (3, 2)), [(2, 3)]),
    "gather_rows": (lambda x: gather_rows(x, [2, 0, 2]), [(4, 3)]),
    "stack_cols": (lambda *parts: stack_cols(parts), [(3,), (3,)]),
    "spmm": (lambda x: spmm(_star_chain(), x), [(7, 3)]),
    "relu": (relu, [(2, 3)]),
    "tanh_act": (tanh_act, [(2, 3)]),
    "sigmoid": (sigmoid, [(2, 3)]),
    "softmax_row": (softmax_row, [(4,)]),
    "sum_all": (sum_all, [(2, 3)]),
    "mean_all": (mean_all, [(2, 3)]),
    "logsumexp_rows": (logsumexp_rows, [(2, 3)]),
    "cross_entropy_rows": (lambda x: cross_entropy_rows(x, [0, 2]), [(2, 3)]),
    "cosine_sim": (cosine_sim, [(3,), (3,)]),
    "cosine_select": (lambda q, t: cosine_select(q, t, [[0, 1], [3, 3]]), [(2, 3), (4, 3)]),
}


@pytest.mark.parametrize("taped", [False, True], ids=["no tape", "tape"])
@pytest.mark.parametrize("grads", ["none", "first", "all"])
def test_every_primitive_returns_a_float64_tensor_without_grad(grads, taped):
    assert sorted(PRIMITIVE_CALLS) == sorted(_recording_primitives())
    tape = Tape()
    with tape if taped else contextlib.nullcontext():
        for name, (fn, shapes) in PRIMITIVE_CALLS.items():
            inputs = [rand(list(shape), seed) for seed, shape in enumerate(shapes)]
            for i, x in enumerate(inputs):
                x.requires_grad_(grads == "all" or (grads == "first" and i == 0))
            out = fn(*inputs)
            assert type(out) is Tensor, name
            assert out.data.dtype == np.float64 and out.data.flags.c_contiguous, name
            assert out.grad is None and out.requires_grad is (grads != "none"), name
    recorded = taped and grads != "none"
    assert len(tape.records) == (len(PRIMITIVE_CALLS) if recorded else 0)


@pytest.mark.parametrize("result", [
    np.arange(6.0).reshape(2, 3).T,            # not C-contiguous
    np.arange(6.0).reshape(2, 3)[:, ::2],      # strided
    np.arange(6).reshape(2, 3),                # integer
    np.ones((2, 3), dtype=np.float32),
    np.float64(2.5),                           # a numpy scalar, not an array
    [[1.0, 2.0], [3.0, 4.0]],
], ids=["transposed", "strided", "int64", "float32", "scalar", "list"])
def test_emit_converts_what_is_not_a_contiguous_float64_array(result):
    want = np.array(result, dtype=np.float64)
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        out = _emit(result, (x,), lambda g: (None,))
    assert out.data.dtype == np.float64 and out.data.flags.c_contiguous
    assert out.data.shape == want.shape and out.data.tobytes() == want.tobytes()
    assert out.grad is None and out.requires_grad
    assert [rec.output for rec in tape.records] == [out]


@pytest.mark.parametrize("result", [np.ones((2, 3)), np.asarray(1.5)], ids=["2-d", "0-d"])
@pytest.mark.parametrize("taped", [False, True], ids=["no tape", "tape"])
@pytest.mark.parametrize("needs_grad", [False, True])
def test_emit_wraps_a_contiguous_float64_array_as_it_is(result, taped, needs_grad):
    x, y = Tensor([1.0]), Tensor([2.0], requires_grad=needs_grad)
    tape = Tape()
    with tape if taped else contextlib.nullcontext():
        out = _emit(result, (x, y), lambda g: (None, g))
    assert out.data is result
    assert out.grad is None and out.requires_grad is needs_grad
    want = [(out, (x, y))] if taped and needs_grad else []
    assert [(rec.output, rec.inputs) for rec in tape.records] == want


@settings(max_examples=200, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(1, 64)),
                       st.tuples(st.integers(1, 64), st.integers(1, 64))),
       seed=st.integers(0, 2**32 - 1), exponents=st.sampled_from([0, 3, 30, 300]),
       fill=st.sampled_from(["finite", "special", "signed nan", "negative zero"]))
def test_mean_all_bit_equal_to_ndarray_mean(shape, seed, exponents, fill):
    # mixed signs, magnitudes spread over 10**-exponents to 10**exponents
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-exponents, exponents, shape)
    x = _fill(x, fill, rng)
    with np.errstate(all="ignore"):  # inf - inf, and sums that overflow
        got = mean_all(Tensor(x)).data
        want = np.asarray(x.mean())
    assert got.shape == () and got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("name,build", _op_cases(),
                         ids=[name.replace(".", "_") for name, _ in _op_cases()])
def test_primitive_gradients_match_fd(name, build):
    for seed in range(5):
        f, probe = build(seed)
        report = fd_check(f, probe)
        assert report.passed, f"{name} seed {seed}: {report}"


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
