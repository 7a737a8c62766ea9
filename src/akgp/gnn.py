"""Graph neural network producing one embedding per knowledge node.

Two rounds of mean-style message passing of the learned node features
(:class:`GnnParams`) over the graph's row-normalized adjacency: a relu
hidden layer followed by a linear output layer, so the embedding geometry
stays unconstrained for cosine retrieval downstream. Propagation multiplies
by the sparse CSR adjacency (:func:`akgp.tensor.spmm`), so a layer costs
time and memory in proportion to the edge count, not N×N.

A caller that reads only some rows of the result can ask for those rows
alone: layer 2 then runs on them and layer 1 on their receptive field, the
rows they hold entries in (the idea of GraphSAGE, without its sampling).
Those rows, and every gradient, keep the bits of the whole computation;
:func:`encode_knowledge` says why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph
from .tensor import CsrMatrix, RowBlock, Tensor, gather_rows, linear, relu, spmm

# A bound on every layer's entries that leaves a wide margin below the
# largest float64 (2**1024) for the rounding of their sums
_ROW_BOUND = 2.0 ** 1000


@dataclass
class GnnParams:
    """The node features and the weights of the two propagation layers."""

    features: Tensor  # (n_nodes, d_k)
    w1: Tensor  # (d_k, d_h)
    b1: Tensor  # (d_h,)
    w2: Tensor  # (d_h, d_e)
    b2: Tensor  # (d_e,)


def gnn_layer(adjacency: CsrMatrix, features: Tensor, weight: Tensor, bias: Tensor,
              rows: RowBlock | None = None, feature_rows: RowBlock | None = None) -> Tensor:
    """One propagation step: A @ H @ W + b, bias per row; given row blocks
    of ``adjacency``, only the rows ``rows`` of it, from the rows
    ``feature_rows`` of H (see :func:`akgp.tensor.spmm`)."""
    return linear(spmm(adjacency, features, rows, feature_rows), weight, bias, rows)


def _abs_max(a: np.ndarray) -> float:
    """The largest absolute value in ``a``, NaN if it holds one, as a Python
    float, whose products overflow to inf without a warning."""
    return max(float(a.max()), -float(a.min()))


def _rows_stay_finite(graph: KnowledgeGraph, params: GnnParams) -> bool:
    """Whether a bound on every entry of both layers, in every row, stays
    below ``_ROW_BOUND``: then no row outside a receptive field holds an
    inf or a NaN to multiply a zero gradient row with."""
    spread = graph.adjacency.abs_row_bound
    layer1 = spread * _abs_max(params.features.data)
    hidden = layer1 * _abs_max(params.w1.data) * len(params.w1.data) + _abs_max(params.b1.data)
    bounds = [layer1, hidden, spread * hidden, _abs_max(params.w2.data)]
    return all(bound < _ROW_BOUND for bound in bounds)  # False for a NaN


def encode_knowledge(graph: KnowledgeGraph, params: GnnParams,
                     rows: RowBlock | None = None) -> Tensor:
    """Embed every node of ``graph`` from ``params.features``; row i of the
    result is the embedding of node i.

    Given ``rows``, a row block of the adjacency
    (:meth:`akgp.tensor.CsrMatrix.row_block`), row j of the result is the
    embedding of node ``rows.index[j]``: layer 2 runs on those rows only and
    layer 1 only on the columns they hold entries in. The result and every
    gradient a loss of it sends back, the node features' included, have
    the bits that the same loss of those rows of the whole result gives.
    Why they hold:

    - each sparse row is summed over all its entries as the whole product
      sums it (:meth:`akgp.tensor.CsrMatrix.row_block`);
    - every dense product runs on all N rows, zero outside the computed
      ones (:func:`akgp.tensor.linear`), since BLAS may choose another
      kernel for fewer rows;
    - the whole computation's gradient is zero outside those rows too, so
      adding it in changes no sum, as long as every row of both layers is
      finite. When an input is not finite, or so large that some row could
      overflow (:func:`_rows_stay_finite`), the whole computation runs
      and its ``rows`` are returned.

    The adjacency's row scales must not be negative, as
    :func:`akgp.kg.build_graph` makes them: then the whole computation's
    zero gradient rows are +0.
    """
    adjacency = graph.adjacency
    if rows is None:
        hidden = relu(gnn_layer(adjacency, params.features, params.w1, params.b1))
        return gnn_layer(adjacency, hidden, params.w2, params.b2)
    if not _rows_stay_finite(graph, params):
        return gather_rows(encode_knowledge(graph, params), rows.index)
    reach = adjacency.row_block(rows.columns())
    hidden = relu(gnn_layer(adjacency, params.features, params.w1, params.b1, reach))
    return gnn_layer(adjacency, hidden, params.w2, params.b2, rows, reach)
