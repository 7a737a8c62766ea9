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
    matmul,
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
    gate = sigmoid(add(matmul(concat(fused, knowledge), params.weight), params.bias))
    if params.mode == "literal":
        return gate
    ones = constant(gate.shape, 1.0)
    return add(mul(gate, fused), mul(sub(ones, gate), knowledge))


def adapt_task(integrated: Tensor, knowledge: Tensor, params: AdaptorParams) -> Tensor:
    """Task head: one relu hidden layer over [m'; k*] rows, then raw class logits."""
    if integrated.shape != knowledge.shape:
        raise ShapeError(f"adaptor inputs disagree: {integrated.shape} vs {knowledge.shape}")
    hidden = relu(add(matmul(concat(integrated, knowledge), params.w_hidden), params.b_hidden))
    return add(matmul(hidden, params.w_out), params.b_out)


PARAM_GROUPS = ("theta_v", "theta_t", "theta_m", "theta_k", "w_g", "theta_a")


@dataclass
class FreezePolicy:
    """Per-group trainability flags; at least one group must stay trainable."""

    theta_v: bool = True
    theta_t: bool = True
    theta_m: bool = True
    theta_k: bool = True
    w_g: bool = True
    theta_a: bool = True

    def __post_init__(self):
        if not any(getattr(self, g) for g in PARAM_GROUPS):
            raise ValueError("freeze policy must leave at least one group trainable")

    @classmethod
    def from_frozen(cls, frozen: list[str]) -> "FreezePolicy":
        unknown = [name for name in frozen if name not in PARAM_GROUPS]
        if unknown:
            raise ValueError(f"unknown parameter group(s) {unknown}; known: {list(PARAM_GROUPS)}")
        return cls(**{g: g not in frozen for g in PARAM_GROUPS})

    @classmethod
    def finetune_default(cls) -> "FreezePolicy":
        return cls.from_frozen(["theta_v", "theta_t", "theta_m", "theta_k"])

    @classmethod
    def pretrain_default(cls) -> "FreezePolicy":
        return cls.from_frozen(["theta_a"])

    def trainable_groups(self) -> list[str]:
        return [g for g in PARAM_GROUPS if getattr(self, g)]

    def frozen_groups(self) -> list[str]:
        return [g for g in PARAM_GROUPS if not getattr(self, g)]


def apply_freeze_policy(model, policy: FreezePolicy):
    """Set requires_grad on every tensor per its group's flag; returns model."""
    for group_name, tensors in model.groups().items():
        flag = getattr(policy, group_name)
        for t in tensors.values():
            t.requires_grad_(flag)
    return model
