"""Graph neural network producing one embedding per knowledge node.

Two rounds of mean-style message passing over the row-normalized adjacency:
a relu hidden layer followed by a linear output layer, so the embedding
geometry stays unconstrained for cosine retrieval downstream. Propagation
multiplies by the sparse CSR adjacency (:func:`akgp.tensor.spmm`), so a
layer costs time and memory in proportion to the edge count, not N×N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kg import KnowledgeGraph
from .tensor import CsrMatrix, Tensor, linear, relu, spmm


@dataclass
class GnnParams:
    """Weights of the two propagation layers."""

    w1: Tensor  # (d_k, d_h)
    b1: Tensor  # (d_h,)
    w2: Tensor  # (d_h, d_e)
    b2: Tensor  # (d_e,)


def gnn_layer(adjacency: CsrMatrix, features: Tensor, weight: Tensor,
              bias: Tensor) -> Tensor:
    """One propagation step: A @ H @ W + b, bias per row."""
    return linear(spmm(adjacency, features), weight, bias)


def encode_knowledge(graph: KnowledgeGraph, params: GnnParams) -> Tensor:
    """Embed every node; row i of the result is the embedding of node i."""
    hidden = relu(gnn_layer(graph.adjacency, graph.features, params.w1, params.b1))
    return gnn_layer(graph.adjacency, hidden, params.w2, params.b2)
