"""Dense reference forms of the sparse graph adjacency, for tests only.

``dense_adjacency`` is the original construction (identity, symmetric edge
set, row divide), kept as the oracle that the CSR build is compared with.
``csr_rows_row_major`` is the original CSR row reduction, which sums down
the columns of an (nnz, d) array of products; the kernel must equal it bit
for bit.
"""

import numpy as np

from akgp.tensor import CsrMatrix


def dense_adjacency(triples, node_index):
    n = len(node_index)
    binary = np.eye(n)
    for head, _, tail in triples:
        i, j = node_index[head], node_index[tail]
        binary[i, j] = 1.0
        binary[j, i] = 1.0
    return binary / binary.sum(axis=1, keepdims=True)


def expand(adj: CsrMatrix, n_cols: int | None = None) -> np.ndarray:
    """The dense matrix a CSR stores; ``n_cols`` columns for a block of
    rows (``CsrMatrix.row_block``)."""
    n = adj.n
    dense = np.zeros((n, n if n_cols is None else n_cols))
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    dense[rows, adj.indices] = adj.values
    return dense


def csr_rows_row_major(adj: CsrMatrix, values, x) -> np.ndarray:
    """Rows of ``M @ x``, M the pattern of ``adj`` holding ``values``."""
    products = x.take(adj.indices, axis=0) * values[:, None]
    return np.add.reduceat(products, adj.indptr[:-1], axis=0)


def csr_from_dense(pattern, scale) -> CsrMatrix:
    """CSR form of ``diag(scale) @ pattern``, ``pattern`` a symmetric boolean
    matrix."""
    rows, cols = np.nonzero(pattern)  # row-major, so columns ascend per row
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(pattern)))])
    return CsrMatrix(indptr, cols, np.asarray(scale, dtype=np.float64))
