"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable computation in this package is composed from the
primitives here, including :func:`spmm`, the product of a constant sparse
:class:`CsrMatrix` with a dense tensor. Recording works through an explicit
:class:`Tape` used as a context manager; operations append a record whenever
a tape is active and any input requires gradients, so inference paths pay no
bookkeeping cost. Tapes are thread-local: independent training runs may
proceed in parallel threads without sharing state.

The finite-difference checker :func:`fd_check` is the independent oracle
for every backward rule and stays deliberately separate from the tape
machinery it validates.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import Rng

COSINE_EPS = 1e-12


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class TapeError(RuntimeError):
    """Backward pass requested over an unusable tape or loss."""


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    Data is row-major and immutable by convention after construction; only
    the ``grad`` buffer accumulates. Setting ``requires_grad`` allocates a
    zeroed gradient slot so optimizers can always rely on its presence.
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
        return float(self.data.reshape(()))

    def tolist(self):
        return self.data.tolist()

    def requires_grad_(self, flag: bool = True) -> "Tensor":
        self.requires_grad = flag
        if flag and self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif not flag:
            self.grad = None
        return self

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"

    # Small operator sugar used by demos and tests; the functional forms
    # below are the canonical API.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


@dataclass
class _Record:
    output: Tensor
    inputs: tuple[Tensor, ...]
    backward: Callable[[np.ndarray], tuple]


_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


class Tape:
    """Ordered record of operations for one forward pass.

    Records are appended in execution order, which is by construction a
    topological order of the computation; replaying them in reverse visits
    each operation exactly once.
    """

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    needs_grad = any(t.requires_grad for t in inputs)
    out = Tensor(out_data)
    out.requires_grad = needs_grad
    if needs_grad:
        stack = _tape_stack()
        if stack:
            stack[-1].records.append(_Record(out, inputs, backward_fn))
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
    produced = {id(rec.output) for rec in tape.records}
    if id(loss) not in produced:
        raise TapeError("loss was not produced on this tape")

    upstream: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for rec in reversed(tape.records):
        # every consumer of an output comes later on the tape, so its
        # gradient is complete here and no longer needed afterwards
        g = upstream.pop(id(rec.output), None)
        if g is None:
            continue
        for tensor, gi in zip(rec.inputs, rec.backward(g)):
            if gi is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in upstream:
                upstream[key] = upstream[key] + gi
            else:
                upstream[key] = gi
                if key not in produced:
                    leaves[key] = tensor
    for key, tensor in leaves.items():
        tensor.accumulate_grad(upstream[key])


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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-d bias broadcast over the rows of a 2-d a."""
    if a.shape == b.shape:
        def bwd(g):
            return g, g
        return _emit(a.data + b.data, (a, b), bwd)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def bwd_bias(g):
            return g, (g.sum(axis=0) if b.requires_grad else None)
        return _emit(a.data + b.data, (a, b), bwd_bias)
    raise ShapeError(f"add got incompatible shapes {a.shape} and {b.shape}")


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
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"row index out of range for {a.shape[0]} rows")
    n_rows = a.shape[0]

    def bwd(g):
        out = np.zeros((n_rows, g.shape[1]))
        np.add.at(out, idx, g)
        return (out,)

    return _emit(a.data[idx], (a,), bwd)


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


@dataclass
class CsrMatrix:
    """Constant square matrix with a symmetric sparsity pattern, stored as
    row-sorted CSR together with its transpose.

    Row i holds ``values[indptr[i]:indptr[i + 1]]`` at the ascending columns
    ``indices[indptr[i]:indptr[i + 1]]``. Because the pattern is symmetric,
    the transpose has the same ``indptr`` and ``indices``, and ``values_t``
    holds its entries: ``values_t[k]`` is the entry mirrored across the
    diagonal from ``values[k]``. Every row must be non-empty: on an empty
    row :func:`numpy.add.reduceat` returns the next row's first product
    instead of zero.
    """

    indptr: np.ndarray   # (n + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray   # (nnz,) float64
    values_t: np.ndarray  # (nnz,) float64

    def __post_init__(self):
        if np.any(np.diff(self.indptr) < 1):
            raise ShapeError("every row of a CsrMatrix needs at least one entry")

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1


def _csr_rows(adj: CsrMatrix, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows of ``M @ x`` where M has the pattern of ``adj`` and ``values``."""
    products = x.take(adj.indices, axis=0)
    products *= values[:, None]
    return np.add.reduceat(products, adj.indptr[:-1], axis=0)


def spmm(adj: CsrMatrix, x: Tensor) -> Tensor:
    """Sparse-dense product ``adj @ x`` for a 2-d ``x``.

    Only ``x`` is an input on the tape: the matrix is constant, so the
    backward pass computes ``adj.T @ g`` and no gradient for the matrix.
    """
    if x.data.ndim != 2 or x.shape[0] != adj.n:
        raise ShapeError(f"spmm needs a 2-d operand with {adj.n} rows, got {x.shape}")

    def bwd(g):
        return (_csr_rows(adj, adj.values_t, g),)

    return _emit(_csr_rows(adj, adj.values, x.data), (x,), bwd)


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

    return _emit(np.asarray(x.data.mean()), (x,), bwd)


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
    if lab.size and (lab.min() < 0 or lab.max() >= n_classes):
        raise IndexError(f"label out of range for {n_classes} classes")
    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    e = np.exp(z)
    s = e.sum(axis=1)
    losses = np.log(s) - z[np.arange(lab.shape[0]), lab]

    def bwd(g):
        grad = e / s[:, None]
        grad[np.arange(lab.shape[0]), lab] -= 1.0
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


def cosine_select(queries: Tensor, table: Tensor, indices,
                  table_norms: np.ndarray | None = None) -> Tensor:
    """Cosine similarity between each query row and selected table rows.

    ``indices`` has shape (n_queries, k); output[i, j] is the similarity of
    query i with table row indices[i, j]. Gradients flow into both the
    queries and the selected table rows (scatter-added), not through the
    index choice. ``table_norms``, when given, must be
    ``row_norms(table.data)``: a constant table's norms, computed once.
    """
    if queries.data.ndim != 2 or table.data.ndim != 2:
        raise ShapeError("cosine_select needs 2-d queries and table")
    if queries.shape[1] != table.shape[1]:
        raise ShapeError(f"width mismatch: {queries.shape} vs {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != queries.shape[0]:
        raise ShapeError("indices must be (n_queries, k)")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"table index out of range for {table.shape[0]} rows")

    q = queries.data
    sel = table.data[idx]                                # (B, k, d)
    nq = row_norms(q)                                    # (B,)
    ns = row_norms(sel) if table_norms is None else table_norms[idx]  # (B, k)
    dead = (nq[:, None] < COSINE_EPS) | (ns < COSINE_EPS)
    denom = np.maximum(nq[:, None] * ns, COSINE_EPS)
    dots = np.einsum("bd,bkd->bk", q, sel)
    c = dots / denom
    c[dead] = 0.0
    n_table = table.shape[0]

    def bwd(g):
        gl = np.where(dead, 0.0, g)
        gq = gt = None
        if queries.requires_grad:
            nq_safe = np.where(nq < COSINE_EPS, 1.0, nq)
            # d/dq: sum over k of gl * (sel/denom - c*ns*q/(nq*denom))
            coef_q = (gl * c * ns / denom).sum(axis=1) / nq_safe     # (B,)
            gq = np.einsum("bk,bkd->bd", gl / denom, sel) - coef_q[:, None] * q
        if table.requires_grad:
            ns_safe = np.where(ns < COSINE_EPS, 1.0, ns)
            # d/dsel per (b, k): gl * (q/denom - c*nq*sel/(ns*denom))
            gs = (gl / denom)[:, :, None] * q[:, None, :] \
                - (gl * c * nq[:, None] / (ns_safe * denom))[:, :, None] * sel
            gt = np.zeros((n_table, q.shape[1]))
            np.add.at(gt, idx.reshape(-1), gs.reshape(-1, q.shape[1]))
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
