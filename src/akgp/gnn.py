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
from .tensor import CsrMatrix, Tensor, add, matmul, relu, spmm, tanh_act


@dataclass
class GnnParams:
    """Weights of the two propagation layers."""

    w1: Tensor  # (d_k, d_h)
    b1: Tensor  # (d_h,)
    w2: Tensor  # (d_h, d_e)
    b2: Tensor  # (d_e,)

    def named(self):
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]


_ACTIVATIONS = {
    "relu": relu,
    "tanh": tanh_act,
    "identity": lambda x: x,
}


def gnn_layer(adjacency: CsrMatrix, features: Tensor, weight: Tensor, bias: Tensor,
              activation: str = "identity") -> Tensor:
    """One propagation step: activation(A @ H @ W + b), bias per row."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    mixed = matmul(spmm(adjacency, features), weight)
    return _ACTIVATIONS[activation](add(mixed, bias))


def encode_knowledge(graph: KnowledgeGraph, params: GnnParams) -> Tensor:
    """Embed every node; row i of the result is the embedding of node i."""
    hidden = gnn_layer(graph.adjacency, graph.features, params.w1, params.b1, "relu")
    return gnn_layer(graph.adjacency, hidden, params.w2, params.b2, "identity")
