"""Gated knowledge integration, the task adaptor head, and freeze control.

The gate has two modes. ``literal`` squashes the concatenated pair straight
through a sigmoid. ``residual`` uses that sigmoid as a coefficient instead,
blending the fused representation with the retrieved knowledge elementwise,
which keeps the output a convex combination of its two inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    constant,
    linear,
    mul,
    relu,
    sigmoid,
    sub,
)

GATE_MODES = ("literal", "residual")


@dataclass
class GateParams:
    weight: Tensor  # (2*d_m, d_m)
    bias: Tensor    # (d_m,)
    mode: str = "literal"

    def __post_init__(self):
        if self.mode not in GATE_MODES:
            raise ValueError(f"gate mode must be one of {GATE_MODES}, got {self.mode!r}")


@dataclass
class AdaptorParams:
    w_hidden: Tensor  # (2*d_m, d_a)
    b_hidden: Tensor  # (d_a,)
    w_out: Tensor     # (d_a, C)
    b_out: Tensor     # (C,)


def gate_integrate(fused: Tensor, knowledge: Tensor, params: GateParams) -> Tensor:
    """Integrate retrieved (B, d_m) knowledge rows into the fused rows."""
    if fused.shape != knowledge.shape:
        raise ShapeError(f"gate inputs disagree: {fused.shape} vs {knowledge.shape}")
    gate = sigmoid(linear(concat(fused, knowledge), params.weight, params.bias))
    if params.mode == "literal":
        return gate
    ones = constant(gate.shape, 1.0)
    return add(mul(gate, fused), mul(sub(ones, gate), knowledge))


def adapt_task(integrated: Tensor, knowledge: Tensor, params: AdaptorParams) -> Tensor:
    """Task head: one relu hidden layer over [m'; k*] rows, then raw class logits."""
    if integrated.shape != knowledge.shape:
        raise ShapeError(f"adaptor inputs disagree: {integrated.shape} vs {knowledge.shape}")
    hidden = relu(linear(concat(integrated, knowledge), params.w_hidden, params.b_hidden))
    return linear(hidden, params.w_out, params.b_out)


PARAM_GROUPS = ("theta_v", "theta_t", "theta_m", "theta_k", "w_g", "theta_a")


def set_frozen(model, frozen):
    """Freeze the tensors of every group named in ``frozen`` and make every
    other group trainable."""
    for group_name, tensors in model.groups().items():
        for t in tensors.values():
            t.requires_grad_(group_name not in frozen)
