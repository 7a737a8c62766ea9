"""Run configuration: every hyperparameter with a documented default,
strict JSON parsing that checks each value against its field's annotation,
and validation that names the offending key."""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass

from .checkpoint import MAX_ELEMENTS
from .fusion import GATE_MODES, PARAM_GROUPS
from .losses import DENOMINATOR_MODES

POSITIVE_SOURCES = ("gold_node", "retrieved")


class ConfigError(ValueError):
    """Configuration file is malformed or violates an invariant."""


@dataclass
class WorldConfig:
    """Shape of the synthetic benchmark world."""

    n_entities: int = 20
    n_attributes: int = 4
    n_examples: int = 2000
    n_distractors: int = 2
    sigma_noise: float = 1.0
    seed: int = 1234

    def validate(self, prefix: str = "world") -> None:
        if self.n_attributes < 2:
            raise ConfigError(f"{prefix}.n_attributes: need at least 2 classes")
        if self.n_entities < self.n_attributes:
            raise ConfigError(f"{prefix}.n_entities: need at least one entity per attribute")
        if self.n_examples < 1:
            raise ConfigError(f"{prefix}.n_examples: must be >= 1")
        if self.n_distractors < 0:
            raise ConfigError(f"{prefix}.n_distractors: must be >= 0")
        if self.sigma_noise < 0:
            raise ConfigError(f"{prefix}.sigma_noise: must be >= 0")


@dataclass
class TrainConfig:
    # representation widths; the knowledge embedding width equals d_m so
    # cosine retrieval and gating line up
    d_i: int = 16
    d_t: int = 16
    d_m: int = 32
    d_k: int = 16
    d_h: int = 32
    d_a: int = 32
    vocab_size: int = 34
    n_classes: int = 4

    # optimization
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    pretrain_epochs: int = 24
    finetune_epochs: int = 30
    seed: int = 0

    # objectives
    tau: float = 0.07
    lambda1: float = 1.0
    lambda2: float = 1.0
    n_negatives: int = 8
    denominator: str = "positive_included"

    # knowledge integration
    gate: str = "literal"
    positive_source: str = "gold_node"
    freeze: list[str] = field(
        default_factory=lambda: ["theta_v", "theta_t", "theta_m", "theta_k"])

    # misc
    retrieve_k: int = 5
    world: WorldConfig = field(default_factory=WorldConfig)

    def weight_shapes(self, n_nodes: int) -> dict[str, tuple[str, tuple[int, int]]]:
        """Each weight matrix of the model by its seed tag (``graph`` for the
        features of ``n_nodes`` nodes): the keys that set its shape, and the
        shape. A weight over a fused pair of d_m rows has 2*d_m rows."""
        return {
            "graph": ("d_k", (n_nodes, self.d_k)),
            "visual.weight": ("d_i/d_m", (self.d_i, self.d_m)),
            "text.table": ("vocab_size/d_t", (self.vocab_size, self.d_t)),
            "text.weight": ("d_t/d_m", (self.d_t, self.d_m)),
            "fusion.weight": ("d_m", (2 * self.d_m, self.d_m)),
            "gnn.w1": ("d_k/d_h", (self.d_k, self.d_h)),
            "gnn.w2": ("d_h/d_m", (self.d_h, self.d_m)),
            "gate.weight": ("d_m", (2 * self.d_m, self.d_m)),
            "adaptor.w_hidden": ("d_m/d_a", (2 * self.d_m, self.d_a)),
            "adaptor.w_out": ("d_a/n_classes", (self.d_a, self.n_classes)),
        }

    def validate(self, n_nodes: int = 1) -> None:
        """Check every value and every parameter's size over ``n_nodes``
        graph nodes; one, the fewest a graph has, checks the config alone."""
        for name in ("d_i", "d_t", "d_m", "d_k", "d_h", "d_a"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: dimensions must be >= 1")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size: must be >= 2")
        if self.n_classes < 2:
            raise ConfigError("n_classes: must be >= 2")
        # checked before anything is allocated against the most a checkpoint loads
        for keys, shape in self.weight_shapes(n_nodes).values():
            if math.prod(shape) > MAX_ELEMENTS:
                raise ConfigError(f"{keys}: a {shape[0]} x {shape[1]} parameter has more "
                                  f"than the {MAX_ELEMENTS} elements a checkpoint holds")
        if self.lr <= 0:
            raise ConfigError("lr: must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1/beta2: must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps: must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size: must be >= 1")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ConfigError("epochs: must be >= 0")
        if self.tau <= 0:
            raise ConfigError("tau: must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda1/lambda2: must be non-negative")
        if self.lambda1 + self.lambda2 <= 0:
            raise ConfigError("lambda1/lambda2: at least one must be positive")
        if self.n_negatives < 1:
            raise ConfigError("n_negatives: must be >= 1")
        if self.denominator not in DENOMINATOR_MODES:
            raise ConfigError(f"denominator: must be one of {list(DENOMINATOR_MODES)}")
        if self.gate not in GATE_MODES:
            raise ConfigError(f"gate: must be one of {list(GATE_MODES)}")
        if self.positive_source not in POSITIVE_SOURCES:
            raise ConfigError(f"positive_source: must be one of {list(POSITIVE_SOURCES)}")
        unknown = [g for g in self.freeze if g not in PARAM_GROUPS]
        if unknown:
            raise ConfigError(f"freeze: unknown group(s) {unknown}")
        if len(set(self.freeze)) == len(PARAM_GROUPS):
            raise ConfigError("freeze: at least one group must stay trainable")
        if self.retrieve_k < 1:
            raise ConfigError("retrieve_k: must be >= 1")
        self.world.validate()

    def to_dict(self) -> dict:
        return asdict(self)

    def snapshot_json(self) -> str:
        """Deterministic serialization for manifests and checkpoints."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _has_type(value, annotation) -> bool:
    """Whether a JSON value fits a field annotation. A bool is not a number,
    and an integer is accepted where a float is expected."""
    if annotation is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if typing.get_origin(annotation) is list:
        (item,) = typing.get_args(annotation)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    return isinstance(value, annotation)


def _is_finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an integer beyond the float range
        return False


def _typed_fields(cls, raw: dict, prefix: str, path_hint: str) -> dict:
    """``raw``'s entries after checking each key and value against ``cls``."""
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        if key not in cls.__dataclass_fields__:
            raise ConfigError(f"{path_hint}unknown key {prefix + key!r}")
        hint = hints[key]
        if not is_dataclass(hint) and not _has_type(value, hint):  # nested: own check
            expected = str(hint) if typing.get_origin(hint) else hint.__name__
            raise ConfigError(f"{path_hint}{prefix}{key}: expected {expected}, "
                              f"got {type(value).__name__} {value!r}")
        if hint is float and not _is_finite(value):
            raise ConfigError(f"{path_hint}{prefix}{key}: must be a finite number, "
                              f"got {value!r}")
    return dict(raw)


def _build_from_dict(raw: dict, path_hint: str = "") -> TrainConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path_hint}top-level value must be a JSON object")
    cfg_kwargs = _typed_fields(TrainConfig, raw, "", path_hint)
    if "world" in cfg_kwargs:
        if not isinstance(cfg_kwargs["world"], dict):
            raise ConfigError(f"{path_hint}world: must be a JSON object")
        cfg_kwargs["world"] = WorldConfig(
            **_typed_fields(WorldConfig, cfg_kwargs["world"], "world.", path_hint))
    cfg = TrainConfig(**cfg_kwargs)
    cfg.validate()
    return cfg


def parse_config(path) -> TrainConfig:
    """Load a JSON config file; unknown keys are rejected, omitted keys take
    their documented defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    return _build_from_dict(raw, path_hint=f"{path}: ")
