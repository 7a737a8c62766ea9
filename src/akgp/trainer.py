"""Two-stage training: contrastive alignment pretraining, then task
fine-tuning under a freeze policy, with deterministic run control.

Stage 1 trains every group except the task adaptor to minimize the
alignment loss. Stage 2 applies the configured freeze policy (by default
only the gate and adaptor train) and minimizes the weighted sum of
alignment and classification losses with hard top-1 retrieval. Each stage
starts a fresh optimizer and its own seeded random stream so runs are
bit-reproducible and resumable from checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from .config import TrainConfig
from .data import Batch, Example, collate
from .encoders import encode_batch
from .fusion import FreezePolicy, adapt_task, apply_freeze_policy, gate_integrate
from .gnn import encode_knowledge
from .kg import KnowledgeGraph
from .losses import LossConfig, align_loss_batch, loss_cls_batch, loss_total
from .model import ModelParams, init_model
from .optim import AdamState, adam_step
from .retrieval import batch_top1_indices, sample_negatives_batch
from .rng import Rng, derive_seed
from .tensor import (
    Tape,
    Tensor,
    backward,
    cross_entropy_rows,
    gather_rows,
    matmul,
    sum_all,
)

STAGE_PRETRAIN = 0
STAGE_FINETUNE = 1


class NumericError(RuntimeError):
    """A non-finite loss appeared mid-run."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class PipelineVariant:
    """Which parts of the knowledge path are active.

    knowledge: "none" feeds the adaptor a zero vector, "mean" the average of
    all node embeddings, "retrieve" the hard top-1 match. The gate only
    applies when enabled and a knowledge vector exists.
    """

    knowledge: str = "retrieve"
    gate: bool = True


FULL_PIPELINE = PipelineVariant()


@dataclass
class TrainerState:
    cfg: TrainConfig
    graph: KnowledgeGraph
    model: ModelParams
    opt: AdamState
    rng: Rng
    stage: int = STAGE_PRETRAIN
    epochs_done: int = 0
    cached_knowledge: Tensor | None = None

    def loss_config(self) -> LossConfig:
        c = self.cfg
        return LossConfig(tau=c.tau, lambda1=c.lambda1, lambda2=c.lambda2,
                          n_negatives=c.n_negatives, denominator=c.denominator)


def make_run(cfg: TrainConfig, graph: KnowledgeGraph) -> TrainerState:
    model = init_model(cfg, graph)
    state = TrainerState(cfg=cfg, graph=graph, model=model, opt=AdamState(),
                         rng=Rng(derive_seed(cfg.seed, "stage.pretrain")))
    start_stage(state, STAGE_PRETRAIN)
    return state


def start_stage(state: TrainerState, stage: int) -> None:
    """Enter a stage: set trainability, reset the optimizer, reseed the
    stage's random stream, and cache knowledge embeddings if they are frozen."""
    state.stage = stage
    state.epochs_done = 0
    state.opt = AdamState()
    if stage == STAGE_PRETRAIN:
        policy = FreezePolicy.pretrain_default()
        state.rng = Rng(derive_seed(state.cfg.seed, "stage.pretrain"))
    else:
        policy = FreezePolicy.from_frozen(state.cfg.freeze)
        state.rng = Rng(derive_seed(state.cfg.seed, "stage.finetune"))
    apply_freeze_policy(state.model, policy)
    state.cached_knowledge = None
    if stage == STAGE_FINETUNE and not policy.theta_k:
        frozen_k = encode_knowledge(state.graph, state.model.gnn_params())
        state.cached_knowledge = Tensor(frozen_k.data.copy())


def _knowledge_matrix(state: TrainerState) -> Tensor:
    if state.cached_knowledge is not None:
        return state.cached_knowledge
    return encode_knowledge(state.graph, state.model.gnn_params())


def _batches(examples: list[Example], cfg: TrainConfig, graph: KnowledgeGraph,
             order: list[int]) -> list[Batch]:
    out = []
    for lo in range(0, len(order), cfg.batch_size):
        chunk = [examples[i] for i in order[lo:lo + cfg.batch_size]]
        out.append(collate(chunk, cfg.vocab_size, graph.node_index))
    return out


def _positive_indices(cfg: TrainConfig, batch: Batch, fused: Tensor,
                      knowledge: Tensor,
                      retrieved: np.ndarray | None = None) -> np.ndarray:
    """Positive node per example: annotated gold when present (and selected
    as the source), otherwise the current top-1 retrieval."""
    if cfg.positive_source == "gold_node" and np.all(batch.gold_indices >= 0):
        return batch.gold_indices.copy()
    if retrieved is None:
        retrieved = batch_top1_indices(fused.data, knowledge.data)
    if cfg.positive_source == "retrieved":
        return retrieved
    return np.where(batch.gold_indices >= 0, batch.gold_indices, retrieved)


def _negative_indices(state: TrainerState, positives: np.ndarray,
                      n_nodes: int) -> np.ndarray:
    return sample_negatives_batch(positives, n_nodes, state.cfg.n_negatives,
                                  state.rng)


def forward_task_batch(model: ModelParams, knowledge: Tensor, batch: Batch,
                       variant: PipelineVariant):
    """Run the task pipeline over one batch.

    Returns (logits, fused, knowledge_vectors, retrieved_indices). The
    retrieved indices are None unless the variant retrieves.
    """
    fused = encode_batch(Tensor(batch.images), Tensor(batch.token_bow),
                         model.encoder_params())
    b = len(batch)
    retrieved = None
    if variant.knowledge == "none":
        k_star = Tensor(np.zeros((b, fused.shape[1])))
    elif variant.knowledge == "mean":
        n = knowledge.shape[0]
        pool = matmul(Tensor(np.full((1, n), 1.0 / n)), knowledge)
        k_star = matmul(Tensor(np.ones((b, 1))), pool)
    elif variant.knowledge == "retrieve":
        retrieved = batch_top1_indices(fused.data, knowledge.data)
        k_star = gather_rows(knowledge, retrieved)
    else:
        raise ValueError(f"unknown knowledge mode {variant.knowledge!r}")
    integrated = fused
    if variant.gate and variant.knowledge != "none":
        integrated = gate_integrate(fused, k_star, model.gate_params())
    logits = adapt_task(integrated, k_star, model.adaptor_params())
    return logits, fused, k_star, retrieved


def _check_finite(value: float, state: TrainerState, what: str) -> None:
    if not np.isfinite(value):
        raise NumericError(state.opt.t + 1, f"{what} became non-finite")


def pretrain_epoch(state: TrainerState, dataset: list[Example]) -> dict:
    """One epoch of alignment-only training; returns {"mean_align_loss"}."""
    if state.stage != STAGE_PRETRAIN:
        raise RuntimeError("state is not in the pretraining stage")
    if not dataset:
        raise ValueError("dataset is empty")
    cfg = state.cfg
    order = list(range(len(dataset)))
    state.rng.shuffle(order)
    total, count = 0.0, 0
    for batch in _batches(dataset, cfg, state.graph, order):
        with Tape() as tape:
            knowledge = _knowledge_matrix(state)
            fused = encode_batch(Tensor(batch.images), Tensor(batch.token_bow),
                                 state.model.encoder_params())
            positives = _positive_indices(cfg, batch, fused, knowledge)
            negatives = _negative_indices(state, positives, knowledge.shape[0])
            loss = align_loss_batch(fused, knowledge, positives, negatives,
                                    cfg.tau, cfg.denominator)
        value = loss.item()
        _check_finite(value, state, "alignment loss")
        backward(loss, tape)
        adam_step(state.model, state.opt, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        total += value * len(batch)
        count += len(batch)
    state.epochs_done += 1
    return {"mean_align_loss": total / count}


def finetune_epoch(state: TrainerState, dataset: list[Example],
                   variant: PipelineVariant = FULL_PIPELINE) -> dict:
    """One epoch of task fine-tuning under the configured freeze policy."""
    if state.stage != STAGE_FINETUNE:
        raise RuntimeError("state is not in the fine-tuning stage")
    if not dataset:
        raise ValueError("dataset is empty")
    cfg = state.cfg
    loss_cfg = state.loss_config()
    order = list(range(len(dataset)))
    state.rng.shuffle(order)
    total_loss, total_task, correct, count = 0.0, 0.0, 0, 0
    for batch in _batches(dataset, cfg, state.graph, order):
        with Tape() as tape:
            knowledge = _knowledge_matrix(state)
            logits, fused, _, retrieved = forward_task_batch(
                state.model, knowledge, batch, variant)
            task = loss_cls_batch(logits, batch.labels)
            if variant.knowledge == "retrieve" and cfg.lambda1 > 0:
                positives = _positive_indices(cfg, batch, fused, knowledge, retrieved)
                negatives = _negative_indices(state, positives, knowledge.shape[0])
                align = align_loss_batch(fused, knowledge, positives, negatives,
                                         cfg.tau, cfg.denominator)
            else:
                align = Tensor(np.asarray(0.0))
            _check_finite(align.item(), state, "alignment loss")
            _check_finite(task.item(), state, "task loss")
            loss = loss_total(align, task, loss_cfg)
        value = loss.item()
        _check_finite(value, state, "total loss")
        backward(loss, tape)
        adam_step(state.model, state.opt, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        predictions = logits.data.argmax(axis=1)
        correct += int((predictions == batch.labels).sum())
        total_loss += value * len(batch)
        total_task += task.item() * len(batch)
        count += len(batch)
    state.epochs_done += 1
    return {
        "mean_total_loss": total_loss / count,
        "mean_task_loss": total_task / count,
        "accuracy": correct / count,
    }


def evaluate(state: TrainerState, dataset: list[Example],
             variant: PipelineVariant = FULL_PIPELINE) -> dict:
    """Accuracy, mean classification loss, and the fraction of examples whose
    retrieved node matches their annotated gold node."""
    if not dataset:
        raise ValueError("dataset is empty")
    cfg = state.cfg
    knowledge = _knowledge_matrix(state)
    order = list(range(len(dataset)))
    loss_sum, correct, hits, with_gold, count = 0.0, 0, 0, 0, 0
    for batch in _batches(dataset, cfg, state.graph, order):
        logits, _, _, retrieved = forward_task_batch(
            state.model, knowledge, batch, variant)
        loss_sum += sum_all(cross_entropy_rows(logits, batch.labels)).item()
        predictions = logits.data.argmax(axis=1)
        correct += int((predictions == batch.labels).sum())
        count += len(batch)
        if retrieved is not None:
            has_gold = batch.gold_indices >= 0
            with_gold += int(has_gold.sum())
            hits += int((retrieved[has_gold] == batch.gold_indices[has_gold]).sum())
    return {
        "accuracy": correct / count,
        "mean_loss": loss_sum / count,
        "retrieval_hit_rate": hits / with_gold if with_gold else 0.0,
    }


# ---------------------------------------------------------------------------
# checkpoint wiring


def save_state(path, state: TrainerState) -> None:
    tensors = {name: t.data for name, t in state.model.named_tensors()}
    buffers = {}
    for name in sorted(state.opt.m):
        buffers[f"m.{name}"] = state.opt.m[name]
    for name in sorted(state.opt.v):
        buffers[f"v.{name}"] = state.opt.v[name]
    save_checkpoint(path, state.cfg.snapshot_json(), tensors, buffers,
                    stage=state.stage, epochs_done=state.epochs_done,
                    adam_t=state.opt.t, rng_state=state.rng.get_state())


def restore_state(state: TrainerState, data: CheckpointData,
                  resume: bool = True) -> None:
    """Copy checkpointed arrays into an initialized run.

    With ``resume`` the optimizer moments, counters, stage, and generator
    position are restored exactly; without it only the parameters load (to
    seed a new stage from earlier weights).
    """
    names = dict(state.model.named_tensors())
    missing = set(names) - set(data.tensors)
    extra = set(data.tensors) - set(names)
    if missing or extra:
        raise ValueError(f"checkpoint tensors do not match model "
                         f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
    for name, array in data.tensors.items():
        if names[name].data.shape != array.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {array.shape}, "
                             f"model expects {names[name].data.shape}")
        names[name].data[...] = array
    if not resume:
        return
    start_stage(state, int(data.stage))
    state.epochs_done = int(data.epochs_done)
    state.opt = AdamState(t=int(data.adam_t))
    for name, array in data.opt_buffers.items():
        kind, _, tensor_name = name.partition(".")
        target = state.opt.m if kind == "m" else state.opt.v
        target[tensor_name] = array.copy()
    state.rng.set_state(data.rng_state)


def load_state(path, cfg: TrainConfig, graph: KnowledgeGraph) -> TrainerState:
    """Rebuild a resumable run from a checkpoint file."""
    data = load_checkpoint(path)
    state = make_run(cfg, graph)
    restore_state(state, data, resume=True)
    return state
