"""The named parameter groups of the full pipeline and their initialization.

Groups: visual encoder, text encoder, fusion, knowledge path (the node
features plus the GNN weights), gate, and task adaptor. Weight matrices,
the node features among them, are xavier-initialized from seeds derived
deterministically from the master seed, or left unfilled for a caller that
copies every tensor in; biases start at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .encoders import EncoderParams
from .fusion import PARAM_GROUPS, AdaptorParams, GateParams
from .gnn import GnnParams
from .kg import KnowledgeGraph
from .rng import derive_seed
from .tensor import Tensor, xavier, zeros


@dataclass
class ModelParams:
    """All trainable state, addressable by group and by qualified name."""

    theta_v: dict[str, Tensor]
    theta_t: dict[str, Tensor]
    theta_m: dict[str, Tensor]
    theta_k: dict[str, Tensor]
    w_g: dict[str, Tensor]
    theta_a: dict[str, Tensor]
    gate_mode: str = "literal"

    def groups(self) -> dict[str, dict[str, Tensor]]:
        return {name: getattr(self, name) for name in PARAM_GROUPS}

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """(qualified name, tensor) pairs in a fixed deterministic order."""
        return [(f"{group}.{name}", t) for group in PARAM_GROUPS
                for name, t in getattr(self, group).items()]

    def encoder_params(self) -> EncoderParams:
        return EncoderParams(
            w_visual=self.theta_v["weight"], b_visual=self.theta_v["bias"],
            token_table=self.theta_t["table"],
            w_text=self.theta_t["weight"], b_text=self.theta_t["bias"],
            w_fusion=self.theta_m["weight"], b_fusion=self.theta_m["bias"],
        )

    def gnn_params(self) -> GnnParams:
        return GnnParams(features=self.theta_k["node_features"],
                         w1=self.theta_k["w1"], b1=self.theta_k["b1"],
                         w2=self.theta_k["w2"], b2=self.theta_k["b2"])

    def gate_params(self) -> GateParams:
        return GateParams(weight=self.w_g["weight"], bias=self.w_g["bias"],
                          mode=self.gate_mode)

    def adaptor_params(self) -> AdaptorParams:
        return AdaptorParams(
            w_hidden=self.theta_a["w_hidden"], b_hidden=self.theta_a["b_hidden"],
            w_out=self.theta_a["w_out"], b_out=self.theta_a["b_out"],
        )


def init_model(cfg: TrainConfig, graph: KnowledgeGraph, fill: bool = True) -> ModelParams:
    """Create all parameter groups for ``graph``'s nodes; the node features
    lead the knowledge group, so one freeze flag governs the whole knowledge
    path. Without ``fill`` the weight matrices are allocated but not drawn."""

    shapes = cfg.weight_shapes(graph.n_nodes)

    def mat(tag):
        shape = shapes[tag][1]
        weight = xavier(shape, derive_seed(cfg.seed, tag)) if fill else Tensor(np.empty(shape))
        return weight.requires_grad_(True)

    def vec(shape):
        return zeros(shape).requires_grad_(True)

    return ModelParams(
        theta_v={"weight": mat("visual.weight"),
                 "bias": vec([cfg.d_m])},
        theta_t={"table": mat("text.table"),
                 "weight": mat("text.weight"),
                 "bias": vec([cfg.d_m])},
        theta_m={"weight": mat("fusion.weight"),
                 "bias": vec([cfg.d_m])},
        theta_k={"node_features": mat("graph"),
                 "w1": mat("gnn.w1"),
                 "b1": vec([cfg.d_h]),
                 "w2": mat("gnn.w2"),
                 "b2": vec([cfg.d_m])},
        w_g={"weight": mat("gate.weight"),
             "bias": vec([cfg.d_m])},
        theta_a={"w_hidden": mat("adaptor.w_hidden"),
                 "b_hidden": vec([cfg.d_a]),
                 "w_out": mat("adaptor.w_out"),
                 "b_out": vec([cfg.n_classes])},
        gate_mode=cfg.gate,
    )
