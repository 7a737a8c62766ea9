"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable computation in this package is composed from the
primitives here, including :func:`linear`, one record per affine layer, and
:func:`spmm`, the product of a constant sparse :class:`CsrMatrix` with a
dense tensor. Recording works through an explicit
:class:`Tape` used as a context manager; operations append a record whenever
a tape is active and any input requires gradients, so inference paths pay no
bookkeeping cost. Tapes nest: an operation records on the innermost active
tape only.

The finite-difference checker :func:`fd_check` is the independent oracle
for every backward rule and stays deliberately separate from the tape
machinery it validates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .rng import Rng

COSINE_EPS = 1e-12


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class TapeError(RuntimeError):
    """Backward pass requested over an unusable tape or loss."""


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    ``data`` is a C-contiguous float64 ndarray (0-d for a scalar), and
    immutable by convention after construction; only the ``grad`` buffer
    accumulates. Setting ``requires_grad`` allocates a zeroed gradient slot
    so optimizers can always rely on its presence.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d scalars 0-d
        self.data = arr
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, shape {self.shape}")
        return self.data.item()  # a Python float: the data is float64

    def requires_grad_(self, flag: bool = True) -> "Tensor":
        self.requires_grad = flag
        if flag and self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif not flag:
            self.grad = None
        return self

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class _Record(NamedTuple):
    output: Tensor
    inputs: tuple[Tensor, ...]
    backward: Callable[[np.ndarray], tuple]


# builds a record from one (output, inputs, backward) tuple, without the
# keyword handling of the NamedTuple constructor
_new_record = functools.partial(tuple.__new__, _Record)


_TAPES: list[Tape] = []  # the active tapes, innermost last


class Tape:
    """Ordered record of operations for one forward pass.

    Records are appended in execution order, which is by construction a
    topological order of the computation; replaying them in reverse visits
    each operation exactly once.
    """

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()


_FLOAT64 = np.dtype(np.float64)


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap a primitive's result as a Tensor, and record it on the innermost
    tape when one is active and an input requires grad."""
    needs_grad = False
    for t in inputs:
        if t.requires_grad:
            needs_grad = True
            break
    # A Tensor's data is a C-contiguous float64 ndarray (a 0-d one is
    # always contiguous), and Tensor.__init__ keeps such an array as it is.
    # So a result that already is one is wrapped without the constructor;
    # anything else (another dtype or layout, a numpy scalar, a list) is
    # converted by it.
    if (type(out_data) is np.ndarray and out_data.dtype is _FLOAT64
            and out_data.flags.c_contiguous):
        out = Tensor.__new__(Tensor)
        out.data, out.grad = out_data, None
    else:
        out = Tensor(out_data)
    out.requires_grad = needs_grad
    if needs_grad and _TAPES:
        _TAPES[-1].records.append(_new_record((out, inputs, backward_fn)))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into the ``.grad`` of every leaf on the tape.

    A leaf is a requires_grad input that no record of the tape produced: a
    parameter or an input tensor. Intermediate results pass their gradient
    on and keep ``.grad`` None. Repeated calls without zeroing gradients add
    up; callers that want fresh gradients must clear them first.
    """
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise TapeError("loss does not depend on any tensor that requires grad")
    # a Tensor hashes and compares by identity, so it keys these directly
    produced = {output for output, _, _ in tape.records}
    if loss not in produced:
        raise TapeError("loss was not produced on this tape")

    upstream: dict[Tensor, np.ndarray] = {loss: np.ones(loss.data.shape)}
    leaves: list[Tensor] = []
    for output, inputs, rule in reversed(tape.records):
        # every consumer of an output comes later on the tape, so its
        # gradient is complete here and no longer needed afterwards
        g = upstream.pop(output, None)
        if g is None:
            continue
        for tensor, gi in zip(inputs, rule(g)):
            if gi is None or not tensor.requires_grad:
                continue
            if tensor in upstream:
                upstream[tensor] = upstream[tensor] + gi
            else:
                upstream[tensor] = gi
                if tensor not in produced:
                    leaves.append(tensor)
    for tensor in leaves:
        tensor.accumulate_grad(upstream[tensor])


# ---------------------------------------------------------------------------
# creation


def tensor_create(shape: Sequence[int], init: str, *, value: float = 0.0,
                  low: float = 0.0, high: float = 1.0, seed: int = 0) -> Tensor:
    """Create a tensor with deterministic content.

    ``init`` is one of ``zeros``, ``constant`` (uses ``value``), ``uniform``
    (uses ``low``/``high``/``seed``) or ``xavier`` (uses ``seed``). Identical
    (init, seed) arguments produce bit-identical content.
    """
    dims = [int(d) for d in shape]
    if len(dims) == 0:
        raise ShapeError("shape must list at least one dimension")
    if any(d < 1 for d in dims):
        raise ShapeError(f"dimensions must be >= 1, got {dims}")
    if init == "zeros":
        return Tensor(np.zeros(dims))
    if init == "constant":
        if not np.isfinite(value):
            raise ValueError(f"constant fill must be finite, got {value}")
        return Tensor(np.full(dims, float(value)))
    if init == "uniform":
        if low > high:
            raise ValueError(f"uniform needs low <= high, got ({low}, {high})")
        flat = Rng(seed).uniform_array(int(np.prod(dims)), low, high)
        return Tensor(flat.reshape(dims))
    if init == "xavier":
        bound = float(np.sqrt(6.0 / sum(dims)))
        flat = Rng(seed).uniform_array(int(np.prod(dims)), -bound, bound)
        return Tensor(flat.reshape(dims))
    raise ValueError(f"unknown init {init!r}")


def zeros(shape) -> Tensor:
    return tensor_create(shape, "zeros")


def constant(shape, value: float) -> Tensor:
    return tensor_create(shape, "constant", value=value)


def uniform(shape, low: float, high: float, seed: int) -> Tensor:
    return tensor_create(shape, "uniform", low=low, high=high, seed=seed)


def xavier(shape, seed: int) -> Tensor:
    return tensor_create(shape, "xavier", seed=seed)


def from_array(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# arithmetic primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def bwd(g):
        return (g @ b_data.T if a.requires_grad else None,
                a_data.T @ g if b.requires_grad else None)

    return _emit(a_data @ b_data, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor, rows: RowBlock | None = None) -> Tensor:
    """Affine map ``x @ w + b`` of a 2-d ``x``, the 1-d bias added to every row.

    Given ``rows``, ``x`` holds those rows of an operand of ``rows.n`` rows
    whose other rows are zero, and the result holds the same rows of its
    map. Every product still runs on all ``rows.n`` rows (see
    :func:`_spread`), so each row has the bits of the whole map, and ``w``
    and ``b`` get the gradient of the whole map with the other rows'
    gradient zero.
    """
    x_data, w_data = x.data, w.data
    xs, ws, bs = x_data.shape, w_data.shape, b.data.shape
    if len(xs) != 2 or len(ws) != 2 or len(bs) != 1:
        raise ShapeError(f"linear needs 2-d x and w and a 1-d b, got {xs}, {ws} and {bs}")
    if xs[1] != ws[0] or ws[1] != bs[0]:
        raise ShapeError(f"linear dims differ: {xs} @ {ws} + {bs}")
    if rows is not None:
        if xs[0] != len(rows.index):
            raise ShapeError(f"linear of {len(rows.index)} rows got {xs}")
        x_data = _spread(x_data, rows)

    def bwd(g):
        g = _spread(g, rows)
        return (_take(g @ w_data.T, rows) if x.requires_grad else None,
                x_data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _emit(_take(x_data @ w_data, rows) + b.data, (x, w, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add got incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        return g, g

    return _emit(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub got incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        return g, -g

    return _emit(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul got incompatible shapes {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data

    def bwd(g):
        return g * b_data, g * a_data

    return _emit(a_data * b_data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError(f"scale factor must be finite, got {factor}")

    def bwd(g):
        return (g * factor,)

    return _emit(a.data * factor, (a,), bwd)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"concat supports 1-d and 2-d tensors, got rank {a.data.ndim}")
    if a.data.ndim == 2 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat row counts differ: {a.shape} vs {b.shape}")
    split = a.shape[-1]

    def bwd(g):
        return g[..., :split], g[..., split:]

    return _emit(np.concatenate([a.data, b.data], axis=-1), (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    dims = tuple(int(d) for d in shape)
    if int(np.prod(dims)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {dims}")
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _emit(a.data.reshape(dims), (a,), bwd)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; gradients scatter-add back into it."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-d tensor, got {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows needs a flat index list")
    if _out_of_range(idx, a.shape[0]):
        raise IndexError(f"row index out of range for {a.shape[0]} rows")
    n_rows = a.shape[0]

    def bwd(g):
        return (_scatter_rows(idx, g, n_rows),)

    return _emit(a.data[idx], (a,), bwd)


def _out_of_range(idx: np.ndarray, n: int) -> bool:
    """True if an int64 index falls outside [0, n): read as uint64, a
    negative one is at least 2**63, so one maximum checks both ends."""
    return bool(idx.size) and int(idx.view(np.uint64).max()) >= n


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The (n_rows, d) array whose row i sums the ``rows`` at the places
    where ``idx`` is i, with the bits of ``np.add.at`` into zeros.

    ``np.bincount`` adds each cell's values in order from +0.0, as
    ``np.add.at`` does. Which of two NaNs an add keeps depends on the loop
    that runs it, so a result with a NaN is computed again by ``np.add.at``.
    """
    d = rows.shape[1]
    cells = (idx[:, None] * d + np.arange(d)).reshape(-1)
    out = np.bincount(cells, weights=rows.reshape(-1), minlength=n_rows * d).reshape(n_rows, d)
    if np.isnan(out.sum()):
        out = np.zeros((n_rows, d))
        np.add.at(out, idx, rows)
    return out


def stack_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack 1-d tensors of equal length as the columns of a 2-d tensor."""
    if not parts:
        raise ShapeError("stack_cols needs at least one tensor")
    length = parts[0].shape
    for p in parts:
        if p.data.ndim != 1 or p.shape != length:
            raise ShapeError("stack_cols needs equal-length 1-d tensors")

    def bwd(g):
        return tuple(g[:, j] for j in range(len(parts)))

    return _emit(np.stack([p.data for p in parts], axis=1), tuple(parts), bwd)


SLOT_ROW_MAX = 8  # the longest row that spmm sums slot by slot


class CsrMatrix:
    """Constant matrix ``diag(scale) @ P``: P a 0/1 sparsity pattern, given
    in row-sorted CSR form, and one scale per row.

    Row i of P holds ones at the ascending columns
    ``indices[indptr[i]:indptr[i + 1]]``, so row i of the matrix holds
    ``scale[i]`` there (``values``). Every row must be non-empty. When P is
    symmetric, as :func:`akgp.kg.build_graph` makes it, the transpose is
    ``P @ diag(scale)``: :func:`spmm`'s backward scales its operand's rows
    and sums them over the same pattern.

    Beside its CSR arrays, the matrix keeps one copy of its columns and
    values in the order :func:`spmm` reads them (the short rows slot by
    slot, then the long rows), 24 bytes per entry and 24 per row. Why those
    slot sums have ``np.add.reduceat``'s bits: :func:`_csr_rows`.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, scale: np.ndarray):
        lengths = np.diff(indptr)
        if np.any(lengths < 1):
            raise ShapeError("every row of a CsrMatrix needs at least one entry")
        self.indptr = indptr  # (n + 1,) int64
        self.indices = indices  # (nnz,) int64
        self.scale = scale  # (n,) float64
        # the short rows, of at most SLOT_ROW_MAX entries, longest first, so
        # those that hold an entry s (slot s) are the first counts[s]; stored
        # are their entries 0, then 1, and so on, then the long rows' entries
        slotted = lengths <= SLOT_ROW_MAX
        short = np.flatnonzero(slotted)
        # a stable sort of one-byte keys is a radix sort
        rows = short[np.argsort((SLOT_ROW_MAX - lengths[short]).astype(np.uint8), kind="stable")]
        at_most = np.cumsum(np.bincount(lengths[short], minlength=SLOT_ROW_MAX + 1))
        counts = (short.size - at_most[:SLOT_ROW_MAX]).tolist()  # rows longer than s
        long_rows = np.flatnonzero(~slotted)
        order = np.concatenate([indptr[rows[:c]] + s for s, c in enumerate(counts)]
                               + [np.flatnonzero(np.repeat(~slotted, lengths))])
        self._cols, self._values = indices[order], self.values[order]
        starts = np.cumsum([0] + counts).tolist()
        self._slots = [(a, a + c) for a, c in zip(starts, counts) if c]  # slot s: [a, b)
        self._n_slotted = starts[-1]
        self._long_starts = np.cumsum(lengths[long_rows]) - lengths[long_rows]
        # a short row's sum ends at its entry 0; the long rows' sums are
        # written over the first of the long rows' entries
        self._positions = np.empty(self.n, dtype=np.int64)
        self._positions[rows] = np.arange(rows.size)
        self._positions[long_rows] = np.arange(self._n_slotted, self._n_slotted + long_rows.size)

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @functools.cached_property
    def abs_row_bound(self) -> float:
        """A bound on the sum of any row's absolute values."""
        return float(np.abs(self.scale).max()) * int(np.diff(self.indptr).max())

    def row_block(self, rows: np.ndarray) -> RowBlock:
        """The rows ``rows`` (ascending, distinct) as a :class:`RowBlock` whose
        matrix, the :class:`CsrMatrix` of their CSR entries, sums each row as
        this one does, with ``np.add.reduceat``'s bits (see :func:`_csr_rows`)."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        block = CsrMatrix(np.concatenate([[0], np.cumsum(lengths)]),
                          self.indices[_ranges(starts, lengths)], self.scale[rows])
        return RowBlock(rows, self.n, block)

    @property
    def values(self) -> np.ndarray:  # (nnz,) float64
        return np.repeat(self.scale, np.diff(self.indptr))


class RowBlock(NamedTuple):
    """Rows ``index`` (ascending, distinct) of an operand or result of
    ``n`` rows. ``matrix`` holds the same rows of a :class:`CsrMatrix` as a
    matrix of their own, its columns still those of all ``n`` rows:
    :func:`spmm` computes only these rows of its product with it, and
    :func:`linear`, which needs no matrix, takes ``index`` and ``n``."""

    index: np.ndarray
    n: int
    matrix: CsrMatrix | None

    def columns(self) -> np.ndarray:
        """The columns, ascending and distinct, that these rows hold entries in."""
        seen = np.zeros(self.n, dtype=bool)
        seen[self.matrix.indices] = True
        return np.flatnonzero(seen)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers from each of ``starts`` on, as many as its ``lengths``."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _spread(a: np.ndarray, rows: RowBlock | None) -> np.ndarray:
    """The ``rows.n``-row array whose rows ``rows.index`` are ``a``'s and
    whose other rows are zero; ``a`` itself when ``rows`` is None."""
    if rows is None:
        return a
    out = np.zeros((rows.n, a.shape[1]))
    out[rows.index] = a
    return out


def _take(a: np.ndarray, rows: RowBlock | None) -> np.ndarray:
    return a if rows is None else a[rows.index]


def _products(cols: np.ndarray, values: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """The (entries, d) products of the rows ``cols`` of ``x`` with
    ``values``, one per entry, or the rows alone when ``values`` is None."""
    products = x.take(cols, axis=0)
    if values is not None:
        products *= values[:, None]
    return products


def _csr_rows(adj: CsrMatrix, x: np.ndarray, scaled: bool) -> np.ndarray:
    """Rows of ``adj @ x``, or of ``P @ x``, P the pattern of ``adj``, when
    not ``scaled``.

    Each row's sum has the bits of ``np.add.reduceat`` over its products,
    row-major: the first product plus numpy's pairwise sum of the others.
    Below 8 terms, that pairwise sum adds left to right from -0.0, and
    adding -0.0 changes no value. So the short rows are summed slot by
    slot, all at once (:func:`_slot_sums`), and the long rows keep
    ``np.add.reduceat``. Which of two NaNs an add keeps (sign and payload)
    depends on the numpy loop that runs it, so a result with a NaN is
    computed again by ``np.add.reduceat`` over all rows in CSR order: a
    NaN anywhere makes the total NaN, and the check costs one sum over the
    result. ``test_tensor::test_csr_rows_bit_equal_to_row_major_reduction``
    and ``test_csr_rows_bit_equal_on_random_patterns`` pin the bits against
    the row-major reduction.
    """
    out = _slot_sums(adj, _products(adj._cols, adj._values if scaled else None, x))
    if not np.isnan(out.sum()):
        return out
    products = _products(adj.indices, adj.values if scaled else None, x)
    return np.add.reduceat(products, adj.indptr[:-1], axis=0)


def _slot_sums(adj: CsrMatrix, products: np.ndarray) -> np.ndarray:
    """Slot s of the stored ``products`` is added into the running sums of
    the short rows that hold it, and each sum is then added to its row's
    first product; the long rows keep ``np.add.reduceat``."""
    if len(adj._slots) > 1:
        a, b = adj._slots[1]
        sums = products[a:b]
        for a, b in adj._slots[2:]:
            head = sums[:b - a]
            np.add(head, products[a:b], out=head)
        first = products[:sums.shape[0]]
        np.add(sums, first, out=first)
    if adj._long_starts.size:
        slotted = adj._n_slotted
        long_sums = np.add.reduceat(products[slotted:], adj._long_starts, axis=0)
        products[slotted:slotted + long_sums.shape[0]] = long_sums
    return products.take(adj._positions, axis=0)


def spmm(adj: CsrMatrix, x: Tensor, rows: RowBlock | None = None,
         x_rows: RowBlock | None = None) -> Tensor:
    """Sparse-dense product ``adj @ x`` for a 2-d ``x``.

    Only ``x`` is an input on the tape: the matrix is constant, so the
    backward pass computes ``adj.T @ g`` and no gradient for the matrix.
    The pattern being symmetric, that is the pattern's product with ``g``
    whose rows are multiplied by ``adj.scale`` first, once each: the
    IEEE products of each entry's value with the row it gathers. Rows of
    at most ``SLOT_ROW_MAX`` entries are summed slot by slot, all such rows
    at once, and longer rows by ``np.add.reduceat``; both give the bits of
    a row-by-row ``np.add.reduceat`` (see :func:`_csr_rows`).

    ``rows`` and ``x_rows`` are row blocks of ``adj`` (:meth:`CsrMatrix.row_block`).
    Given ``rows``, only those rows of the product are computed, each over
    all its entries, so with the bits of the whole product. Given
    ``x_rows``, ``x`` holds only those rows of the operand, and the others
    are zero. The backward pass is then the product with ``adj.T``, whose
    rows are ``x_rows`` and whose operand rows are ``rows``.
    """
    n_in = adj.n if x_rows is None else len(x_rows.index)
    if x.data.ndim != 2 or x.shape[0] != n_in:
        raise ShapeError(f"spmm needs a 2-d operand with {n_in} rows, got {x.shape}")
    out_rows = adj if rows is None else rows.matrix
    in_rows = adj if x_rows is None else x_rows.matrix

    def bwd(g):
        return (_csr_rows(in_rows, _spread(g, rows) * adj.scale[:, None], False),)

    return _emit(_csr_rows(out_rows, _spread(x.data, x_rows), True), (x,), bwd)


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient at 0 is 0

    def bwd(g):
        return (g * mask,)

    return _emit(np.maximum(x.data, 0.0), (x,), bwd)


def tanh_act(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _emit(y, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0, e) / (1.0 + e)  # 1/(1+e) or e/(1+e)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _emit(y, (x,), bwd)


def softmax_row(x: Tensor) -> Tensor:
    """Stable softmax of a 1-d tensor; output sums to 1."""
    if x.data.ndim != 1 or x.size < 1:
        raise ShapeError(f"softmax_row needs a non-empty 1-d tensor, got {x.shape}")
    shifted = x.data - x.data.max()
    e = np.exp(shifted)
    y = e / e.sum()

    def bwd(g):
        return (y * (g - np.dot(g, y)),)

    return _emit(y, (x,), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def bwd(g):
        return (np.full(shape, float(g)),)

    return _emit(np.asarray(x.data.sum()), (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    shape, n = x.shape, x.size

    def bwd(g):
        return (np.full(shape, float(g) / n),)

    # ndarray.mean's own steps for float64: the sum, divided by the count
    return _emit(np.asarray(np.add.reduce(x.data, axis=None) / n), (x,), bwd)


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log(sum(exp(.))) of a 2-d tensor, max-subtracted for stability."""
    if x.data.ndim != 2:
        raise ShapeError(f"logsumexp_rows needs a 2-d tensor, got {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=1, keepdims=True)
    out = (m + np.log(s)).reshape(-1)

    def bwd(g):
        return (e / s * g[:, None],)

    return _emit(out, (x,), bwd)


def cross_entropy_rows(logits: Tensor, labels) -> Tensor:
    """Per-row softmax cross-entropy of 2-d logits against integer labels."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows needs 2-d logits, got {logits.shape}")
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1 or lab.shape[0] != logits.shape[0]:
        raise ShapeError("one label per logits row required")
    n_classes = logits.shape[1]
    if _out_of_range(lab, n_classes):
        raise IndexError(f"label out of range for {n_classes} classes")
    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    e = np.exp(z)
    s = e.sum(axis=1)
    at_labels = (np.arange(lab.shape[0]), lab)
    losses = np.log(s) - z[at_labels]

    def bwd(g):
        grad = e / s[:, None]
        grad[at_labels] -= 1.0
        return (grad * g[:, None],)

    return _emit(losses, (logits,), bwd)


# ---------------------------------------------------------------------------
# cosine geometry


def cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of two 1-d tensors.

    The denominator is floored at a small epsilon so degenerate inputs never
    divide by zero; an operand with norm below that epsilon yields
    similarity 0 with zero gradient.
    """
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"cosine_sim needs equal-length vectors, got {a.shape} and {b.shape}")
    av, bv = a.data, b.data
    na = np.sqrt(np.dot(av, av))
    nb = np.sqrt(np.dot(bv, bv))
    degenerate = na < COSINE_EPS or nb < COSINE_EPS
    denom = max(na * nb, COSINE_EPS)
    c = 0.0 if degenerate else float(np.dot(av, bv) / denom)

    def bwd(g):
        if degenerate:
            return np.zeros_like(av), np.zeros_like(bv)
        ga = g * (bv / denom - c * nb * av / (na * denom))
        gb = g * (av / denom - c * na * bv / (nb * denom))
        return ga, gb

    return _emit(np.asarray(c), (a, b), bwd)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row along the last axis."""
    return np.sqrt((x * x).sum(axis=-1))


def cosine_select(queries: Tensor, table: Tensor, indices) -> Tensor:
    """Cosine similarity between each query row and selected table rows.

    ``indices`` has shape (n_queries, k); output[i, j] is the similarity of
    query i with table row indices[i, j]. Gradients flow into both the
    queries and the selected table rows (scatter-added), not through the
    index choice. The selected rows' norms are taken from the table when it
    has fewer rows than the selection, and from the selection otherwise: a
    row's norm has the same bits either way.
    """
    if queries.data.ndim != 2 or table.data.ndim != 2:
        raise ShapeError("cosine_select needs 2-d queries and table")
    if queries.shape[1] != table.shape[1]:
        raise ShapeError(f"width mismatch: {queries.shape} vs {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != queries.shape[0]:
        raise ShapeError("indices must be (n_queries, k)")
    if _out_of_range(idx, table.shape[0]):
        raise IndexError(f"table index out of range for {table.shape[0]} rows")

    q = queries.data
    sel = table.data[idx]                                # (B, k, d)
    nq = row_norms(q)                                    # (B,)
    ns = row_norms(table.data)[idx] if table.shape[0] < idx.size else row_norms(sel)  # (B, k)
    dead = (nq[:, None] < COSINE_EPS) | (ns < COSINE_EPS)
    denom = np.maximum(nq[:, None] * ns, COSINE_EPS)
    dots = np.einsum("bd,bkd->bk", q, sel)
    c = dots / denom
    c[dead] = 0.0
    n_table = table.shape[0]

    def bwd(g):
        gl = np.where(dead, 0.0, g)
        gl_denom = gl / denom
        gq = gt = None
        if queries.requires_grad:
            nq_safe = np.where(nq < COSINE_EPS, 1.0, nq)
            # d/dq: sum over k of gl * (sel/denom - c*ns*q/(nq*denom))
            coef_q = (gl * c * ns / denom).sum(axis=1) / nq_safe     # (B,)
            gq = np.einsum("bk,bkd->bd", gl_denom, sel) - coef_q[:, None] * q
        if table.requires_grad:
            ns_safe = np.where(ns < COSINE_EPS, 1.0, ns)
            # d/dsel per (b, k): gl * (q/denom - c*nq*sel/(ns*denom))
            gs = gl_denom[:, :, None] * q[:, None, :]
            gs -= (gl * c * nq[:, None] / (ns_safe * denom))[:, :, None] * sel
            gt = _scatter_rows(idx.reshape(-1), gs.reshape(-1, q.shape[1]), n_table)
        return gq, gt

    return _emit(c, (queries, table), bwd)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class FdReport:
    """Outcome of one finite-difference comparison."""

    passed: bool
    max_rel_err: float
    worst_index: tuple
    autodiff_grad: np.ndarray
    fd_grad: np.ndarray

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return f"{verdict}: max rel err {self.max_rel_err:.3e} at {self.worst_index}"


def fd_check(f: Callable[[Tensor], Tensor], x: Tensor,
             h: float = 1e-5, tol: float = 1e-4) -> FdReport:
    """Compare the autodiff gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    Relative error per element uses denominator max(|grad|, |fd|, 1e-8).
    The perturbed evaluations run off-tape, rebuilding the forward pass each
    time.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if y.data.size != 1:
        raise ShapeError(f"fd_check needs a scalar-valued function, got shape {y.shape}")
    backward(y, tape)
    grad = probe.grad.reshape(-1).copy()

    fd = np.zeros_like(grad)
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        up = f(Tensor(bumped.reshape(x.shape))).item()
        bumped[i] = flat[i] - h
        down = f(Tensor(bumped.reshape(x.shape))).item()
        fd[i] = (up - down) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
    rel = np.abs(grad - fd) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    max_err = float(rel[worst]) if rel.size else 0.0
    return FdReport(
        passed=bool(max_err <= tol),
        max_rel_err=max_err,
        worst_index=np.unravel_index(worst, x.shape),
        autodiff_grad=grad.reshape(x.shape),
        fd_grad=fd.reshape(x.shape),
    )
