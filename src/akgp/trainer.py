"""Two-stage training: contrastive alignment pretraining, then task
fine-tuning under a freeze policy, with deterministic run control.

Stage 1 trains every group except the task adaptor to minimize the
alignment loss. Stage 2 applies the configured freeze policy (by default
only the gate and adaptor train) and minimizes the weighted sum of
alignment and classification losses with hard top-1 retrieval. Each stage
starts a fresh optimizer and its own seeded random stream so runs are
bit-reproducible and resumable from checkpoints. What a stage keeps frozen
is computed once per stage into the :class:`StageCache` that
:func:`start_stage` puts in place, and that copies of the run may share:
the knowledge matrix when the knowledge group is frozen, and each
example's fused row (and its top-1 retrieval) when the encoders are. Both
stages run one epoch loop. When a step's fused rows and the knowledge are
both frozen, its alignment term has no gradient and is evaluated ahead of
the epoch's steps; otherwise it is on the tape.
A pretraining step with gold positives encodes only the knowledge rows its
alignment loss reads, when that pays (see :func:`_loss_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, TrainConfig
from .data import Batch, Example, collate
from .encoders import encode_batch
from .fusion import adapt_task, gate_integrate, set_frozen
from .gnn import encode_knowledge
from .kg import KnowledgeGraph
from .losses import (
    align_loss_batch,
    align_loss_rows,
    loss_cls_batch,
    loss_total,
)
from .model import ModelParams, init_model
from .optim import AdamState, adam_step
from .retrieval import batch_top1_indices, sample_negatives_batch
from .rng import Rng, derive_seed
from .tensor import (
    RowBlock,
    Tape,
    Tensor,
    backward,
    cross_entropy_rows,
    gather_rows,
    matmul,
    row_norms,
    sum_all,
)

STAGE_PRETRAIN = 0
STAGE_FINETUNE = 1


class NumericError(RuntimeError):
    """A non-finite loss appeared mid-run. Its ``args`` are the step and the
    message, so it pickles to the same error."""

    def __init__(self, step: int, message: str):
        super().__init__(step, message)
        self.step = step

    def __str__(self) -> str:
        return f"step {self.step}: {self.args[1]}"


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
class StageCache:
    """What a stage computes once: the frozen knowledge matrix, and a
    collated dataset's fused rows under frozen encoders, with each row's
    top-1 node once a step retrieves against frozen knowledge. These are
    products of tensors the stage never steps, so copies of a run that hold
    those tensors bit for bit may share one cache, each filling it for all."""

    knowledge: Tensor | None = None  # (n_nodes, d_e)
    batch: Batch | None = None  # the collated dataset the rows were encoded from
    fused: np.ndarray | None = None  # (N, d_m)
    retrieved: np.ndarray | None = None  # (N,) int64


@dataclass
class TrainerState:
    cfg: TrainConfig
    graph: KnowledgeGraph
    model: ModelParams
    opt: AdamState
    rng: Rng
    stage: int = STAGE_PRETRAIN
    epochs_done: int = 0
    cache: StageCache = field(default_factory=StageCache)  # replaced by start_stage


def make_run(cfg: TrainConfig, graph: KnowledgeGraph,
             weights: dict[str, np.ndarray] | None = None) -> TrainerState:
    """A new run on ``graph`` in the pretraining stage; an invalid ``cfg``
    raises ConfigError naming the key, before any parameter is allocated.
    Its parameters are drawn from the seed, or, given ``weights``, allocated
    undrawn and filled by :func:`load_weights`."""
    cfg.validate(graph.n_nodes)
    model = init_model(cfg, graph, fill=weights is None)
    state = TrainerState(cfg=cfg, graph=graph, model=model, opt=AdamState(),
                         rng=Rng(derive_seed(cfg.seed, "stage.pretrain")))
    if weights is not None:
        load_weights(state, weights)
    start_stage(state, STAGE_PRETRAIN)
    return state


def start_stage(state: TrainerState, stage: int) -> None:
    """Enter a stage: set trainability, reset the optimizer, reseed the
    stage's random stream, and replace the :class:`StageCache` with one
    holding the knowledge embeddings if they are frozen."""
    state.stage = stage
    state.epochs_done = 0
    state.opt = AdamState()
    if stage == STAGE_PRETRAIN:
        frozen, stream = ["theta_a"], "stage.pretrain"
    else:
        frozen, stream = state.cfg.freeze, "stage.finetune"
    state.rng = Rng(derive_seed(state.cfg.seed, stream))
    set_frozen(state.model, frozen)
    if "theta_k" in frozen:  # no input requires grad, so nothing is recorded
        knowledge = encode_knowledge(state.graph, state.model.gnn_params())
        state.cache = StageCache(knowledge)
    else:
        state.cache = StageCache()


def knowledge_matrix(state: TrainerState, rows: RowBlock | None = None) -> Tensor:
    """The node embeddings: the stage's frozen matrix, or the GNN run now;
    given ``rows``, the GNN's embeddings of those nodes alone (see
    :func:`akgp.gnn.encode_knowledge`)."""
    if state.cache.knowledge is not None:
        return state.cache.knowledge
    return encode_knowledge(state.graph, state.model.gnn_params(), rows)


def collate_dataset(state: TrainerState, dataset: Batch | list[Example]) -> Batch:
    """A dataset as one batch against the run's vocabulary and graph, to be
    collated once and passed to every epoch; a batch is returned as it is."""
    if isinstance(dataset, Batch):
        return dataset
    if not dataset:
        raise ValueError("dataset is empty")
    return collate(dataset, state.cfg.vocab_size, state.graph.node_index)


def _row_chunks(order, batch_size: int):
    """The row indices of each batch along ``order``, one batch at a time."""
    order = np.asarray(order, dtype=np.int64)
    for lo in range(0, order.shape[0], batch_size):
        yield order[lo:lo + batch_size]


def _encode(model: ModelParams, batch: Batch) -> Tensor:
    return encode_batch(Tensor(batch.images), Tensor(batch.token_bow),
                        model.encoder_params())


def encode_rows(model: ModelParams, dataset: Batch, batch_size: int) -> np.ndarray:
    """(N, d_m) fused rows of a collated dataset, encoded ``batch_size`` rows
    at a time in dataset order.

    Each product has the shape of a training step's, so every row gets the
    bits its step would compute, and no (N, V) bag-of-tokens matrix exists.
    """
    fused = np.empty((len(dataset), model.theta_m["bias"].shape[0]))
    for rows in _row_chunks(np.arange(len(dataset)), batch_size):
        fused[rows] = _encode(model, dataset.take(rows)).data
    return fused


def _encoded_dataset(state: TrainerState, dataset: Batch,
                     variant: PipelineVariant) -> StageCache | None:
    """The stage cache with the encoded rows of ``dataset``, built on first
    use, and each row's top-1 node once the variant retrieves against frozen
    knowledge; None while any encoder group trains."""
    model = state.model
    if any(t.requires_grad for t in vars(model.encoder_params()).values()):
        return None
    batch_size = state.cfg.batch_size
    cache = state.cache
    if cache.batch is not dataset:
        cache.batch, cache.fused, cache.retrieved = (
            dataset, encode_rows(model, dataset, batch_size), None)
    if (variant.knowledge == "retrieve" and cache.retrieved is None
            and cache.knowledge is not None):
        norms = row_norms(cache.knowledge.data)
        cache.retrieved = np.empty(len(dataset), dtype=np.int64)
        for rows in _row_chunks(np.arange(len(dataset)), batch_size):
            cache.retrieved[rows] = batch_top1_indices(
                cache.fused[rows], cache.knowledge.data, norms)
    return cache


def _gold_positives(cfg: TrainConfig, gold: np.ndarray) -> np.ndarray | None:
    """The positives when they are the annotated gold nodes: the source is
    ``gold_node`` and every example has one (``gold`` >= 0); else None."""
    if cfg.positive_source == "gold_node" and np.all(gold >= 0):
        return gold.copy()
    return None


def _positive_indices(cfg: TrainConfig, gold: np.ndarray, fused: Tensor | None,
                      knowledge: Tensor,
                      retrieved: np.ndarray | None = None) -> np.ndarray:
    """Positive node per example: annotated gold (``gold`` >= 0) when
    present and selected as the source, otherwise the top-1 retrieval,
    ``retrieved`` when given and taken from ``fused`` otherwise."""
    positives = _gold_positives(cfg, gold)
    if positives is not None:
        return positives
    if retrieved is None:
        retrieved = batch_top1_indices(fused.data, knowledge.data)
    if cfg.positive_source == "retrieved":
        return retrieved
    return np.where(gold >= 0, gold, retrieved)


def _task_head(model: ModelParams, knowledge: Tensor, fused: Tensor,
              variant: PipelineVariant, knowledge_norms: np.ndarray | None = None,
              retrieved: np.ndarray | None = None):
    """The task pipeline after the encoders: knowledge, gate and adaptor.

    Returns (logits, retrieved_indices). The retrieved indices are None
    unless the variant retrieves; ``retrieved``, when given, is each row's
    top-1 node, taken earlier against the same knowledge matrix, and a
    retrieving variant uses it instead of taking it. ``knowledge_norms``,
    when given, must be the matrix's row norms.
    """
    b = fused.shape[0]
    if variant.knowledge == "none":
        retrieved = None
        k_star = Tensor(np.zeros((b, fused.shape[1])))
    elif variant.knowledge == "mean":
        retrieved = None
        n = knowledge.shape[0]
        pool = matmul(Tensor(np.full((1, n), 1.0 / n)), knowledge)
        k_star = matmul(Tensor(np.ones((b, 1))), pool)
    elif variant.knowledge == "retrieve":
        if retrieved is None:
            retrieved = batch_top1_indices(fused.data, knowledge.data, knowledge_norms)
        k_star = gather_rows(knowledge, retrieved)
    else:
        raise ValueError(f"unknown knowledge mode {variant.knowledge!r}")
    integrated = fused
    if variant.gate and variant.knowledge != "none":
        integrated = gate_integrate(fused, k_star, model.gate_params())
    logits = adapt_task(integrated, k_star, model.adaptor_params())
    return logits, retrieved


def _check_finite(value: float, step: int, what: str) -> None:
    if not math.isfinite(value):
        raise NumericError(step, f"{what} became non-finite")


# 8-byte words of working memory (512 KB) one evaluation of frozen alignment
# terms works on: it takes whole steps until the knowledge rows their loss
# gathers reach it
_ALIGN_WORDS = 1 << 16


def _frozen_align_terms(state: TrainerState, steps: list[np.ndarray]) -> list[float]:
    """Each step's alignment term, a constant of its loss when the fused
    rows and the knowledge are frozen.

    Whole steps are evaluated together until the knowledge rows their loss
    gathers (``row_words`` each) reach ``_ALIGN_WORDS``; the size bounds
    only that gather, as sampling works in rows x ``n_negatives`` whatever
    the group. Negatives take one stream word per step, in step order, and
    the loss is row by row, so each step gets the bits it would have had alone.
    The positives of a group are taken in one call: each row's positive is
    its gold node, if it has one and that is the source, else its top-1, so
    it does not depend on the other rows of its step.
    """
    cfg, cache, knowledge = state.cfg, state.cache, state.cache.knowledge
    row_words = (cfg.n_negatives + 1) * knowledge.shape[1]
    terms, group = [], []
    for i, rows in enumerate(steps):
        group.append(rows)
        if i + 1 < len(steps) and sum(map(len, group)) * row_words < _ALIGN_WORDS:
            continue
        sizes = [len(r) for r in group]
        index = np.concatenate(group)
        positives = _positive_indices(cfg, cache.batch.gold_indices[index], None, knowledge,
                                      cache.retrieved[index])
        negatives = sample_negatives_batch(positives, knowledge.shape[0], cfg.n_negatives,
                                           state.rng, sizes)
        per_row = align_loss_rows(Tensor(cache.fused[index]), knowledge, positives,
                                  negatives, cfg.tau, cfg.denominator).data
        if sizes.count(sizes[0]) == len(sizes):  # one row reduction, as np.mean's per step
            terms += per_row.reshape(len(sizes), -1).mean(axis=1).tolist()
        else:
            terms += [float(r.mean()) for r in np.split(per_row, np.cumsum(sizes)[:-1])]
        group = []
    return terms


def _loss_rows(state: TrainerState, positives: np.ndarray,
               negatives: np.ndarray) -> RowBlock | None:
    """The knowledge rows a step's alignment loss reads, as a row block of
    the adjacency, when computing only them pays; else None.

    Layer 1 then runs on the rows that these hold entries in, their
    receptive field, while the dense products and the node-feature gradient
    still cover every node, so computing only those rows pays while the
    field is well short of every node. Had the rows' E entries random
    columns, the field would cover a share 1 - exp(-E / n) of the n nodes,
    which matches the generated graphs of 1,004 to 10,004 nodes within 0.06
    a step. So the rows path runs while E <= n, an expected field of at
    most 1 - 1/e (63%) of the nodes; E costs one pass over the rows, where
    the field costs one over their entries."""
    n = state.graph.n_nodes
    read = np.zeros(n, dtype=bool)
    read[positives] = True
    read[negatives] = True
    rows = np.flatnonzero(read)
    indptr = state.graph.adjacency.indptr
    if (indptr[rows + 1] - indptr[rows]).sum() > n:
        return None
    return state.graph.adjacency.row_block(rows)


def _run_epoch(state: TrainerState, dataset: Batch | list[Example], stage: int,
               variant: PipelineVariant) -> dict:
    """One epoch of either stage: see pretrain_epoch and finetune_epoch."""
    if state.stage != stage:
        raise RuntimeError(f"state is not in the {('pretraining', 'fine-tuning')[stage]} stage")
    finetune = stage == STAGE_FINETUNE
    cfg = state.cfg
    aligns = not finetune or (variant.knowledge == "retrieve" and cfg.lambda1 > 0)
    nodes = state.graph.n_nodes
    if aligns and cfg.n_negatives >= nodes:  # checked before the shuffle draws
        raise ConfigError(f"n_negatives: {cfg.n_negatives} negatives need at least "
                          f"{cfg.n_negatives + 1} knowledge nodes; the graph has {nodes}")
    dataset = collate_dataset(state, dataset)
    encoded = _encoded_dataset(state, dataset, variant)
    order = list(range(len(dataset)))
    state.rng.shuffle(order)
    steps = list(_row_chunks(order, cfg.batch_size))
    fixed_align = None  # each step's alignment term when it has no gradient
    if not aligns:
        fixed_align = [0.0] * len(steps)
    elif encoded is not None and encoded.knowledge is not None:
        fixed_align = _frozen_align_terms(state, steps)
    # With gold positives and no task head, which reads every row, a step
    # draws its negatives first, so the GNN may encode only the rows the loss
    # reads (_loss_rows). A step reads at least n_negatives + 1 rows, so none
    # can while that many shortest rows hold more entries than there are nodes.
    shortest = int(np.diff(state.graph.adjacency.indptr).min())
    rows_path = (not finetune and state.cache.knowledge is None
                 and (cfg.n_negatives + 1) * shortest <= state.graph.n_nodes)
    loss_sum, task_sum, correct = 0.0, 0.0, 0
    for i, rows in enumerate(steps):
        step = state.opt.t + 1
        with Tape() as tape:
            positives = negatives = rows_read = None
            if rows_path:
                positives = _gold_positives(cfg, dataset.gold_indices[rows])
            if positives is not None:
                negatives = sample_negatives_batch(positives, state.graph.n_nodes,
                                                   cfg.n_negatives, state.rng)
                rows_read = _loss_rows(state, positives, negatives)
            knowledge = knowledge_matrix(state, rows_read)
            if encoded is None:
                fused, retrieved = _encode(state.model, dataset.take(rows)), None
            else:
                fused = Tensor(encoded.fused[rows])
                retrieved = None if encoded.retrieved is None else encoded.retrieved[rows]
            if finetune:
                logits, retrieved = _task_head(state.model, knowledge, fused, variant,
                                               retrieved=retrieved)
                task = loss_cls_batch(logits, dataset.labels[rows])
            if fixed_align is not None:
                align = Tensor(np.asarray(fixed_align[i]))
            else:
                if positives is None:
                    positives = _positive_indices(cfg, dataset.gold_indices[rows], fused,
                                                  knowledge, retrieved)
                    negatives = sample_negatives_batch(positives, knowledge.shape[0],
                                                       cfg.n_negatives, state.rng)
                if rows_read is not None:
                    positives = np.searchsorted(rows_read.index, positives)
                    negatives = np.searchsorted(rows_read.index, negatives)
                align = align_loss_batch(fused, knowledge, positives, negatives,
                                         cfg.tau, cfg.denominator)
            _check_finite(align.item(), step, "alignment loss")
            loss = align
            if finetune:
                _check_finite(task.item(), step, "task loss")
                loss = loss_total(align, task, cfg.lambda1, cfg.lambda2)
                _check_finite(loss.item(), step, "total loss")
        backward(loss, tape)
        adam_step(state.model, state.opt, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        loss_sum += loss.item() * len(rows)
        if finetune:
            task_sum += task.item() * len(rows)
            correct += int((logits.data.argmax(axis=1) == dataset.labels[rows]).sum())
    state.epochs_done += 1
    n = len(order)
    if not finetune:
        return {"mean_align_loss": loss_sum / n}
    return {"mean_total_loss": loss_sum / n, "mean_task_loss": task_sum / n,
            "accuracy": correct / n}


def pretrain_epoch(state: TrainerState, dataset: Batch | list[Example]) -> dict:
    """One epoch of alignment-only training; returns {"mean_align_loss"}.

    A step whose positives are the gold nodes draws its negatives first
    and, when it pays (:func:`_loss_rows`), runs the GNN on the rows the
    loss reads alone (:func:`akgp.gnn.encode_knowledge`), which gives the
    loss, every gradient and so every output the bits of encoding every node.
    """
    return _run_epoch(state, dataset, STAGE_PRETRAIN, FULL_PIPELINE)


def finetune_epoch(state: TrainerState, dataset: Batch | list[Example],
                   variant: PipelineVariant = FULL_PIPELINE) -> dict:
    """One epoch of task fine-tuning under the configured freeze policy.

    When the encoders are frozen, the dataset's fused rows are encoded once
    per stage (see :func:`encode_rows`) and each step gathers its rows; when
    the knowledge is frozen too, so is each row's top-1 retrieval. The
    stage's :class:`StageCache` holds them for one collated ``dataset``:
    pass the same :class:`Batch` to every epoch to reuse them.

    When the fused rows and the knowledge matrix are both frozen, the
    alignment term adds a constant to a step's loss and nothing to its
    gradient, and every step's term is evaluated right after the epoch's
    shuffle (see :func:`_frozen_align_terms`). Each step checks its
    alignment, task and total loss, in that order, before its update: a
    non-finite loss raises :class:`NumericError` naming the step and term.
    """
    return _run_epoch(state, dataset, STAGE_FINETUNE, variant)


def evaluate(state: TrainerState, dataset: Batch | list[Example],
             variant: PipelineVariant = FULL_PIPELINE) -> dict:
    """Accuracy, mean classification loss, and the fraction of examples whose
    retrieved node matches their annotated gold node."""
    dataset = collate_dataset(state, dataset)
    knowledge = knowledge_matrix(state)
    norms = row_norms(knowledge.data)
    loss_sum, correct, hits, with_gold = 0.0, 0, 0, 0
    for rows in _row_chunks(np.arange(len(dataset)), state.cfg.batch_size):
        batch = dataset.take(rows)
        logits, retrieved = _task_head(state.model, knowledge,
                                       _encode(state.model, batch), variant, norms)
        loss_sum += sum_all(cross_entropy_rows(logits, batch.labels)).item()
        correct += int((logits.data.argmax(axis=1) == batch.labels).sum())
        if retrieved is not None:
            has_gold = batch.gold_indices >= 0
            with_gold += int(has_gold.sum())
            hits += int((retrieved[has_gold] == batch.gold_indices[has_gold]).sum())
    n = len(dataset)
    return {"accuracy": correct / n, "mean_loss": loss_sum / n,
            "retrieval_hit_rate": hits / with_gold if with_gold else 0.0}


# ---------------------------------------------------------------------------
# checkpoint wiring


def save_state(path, state: TrainerState) -> None:
    tensors = {name: t.data for name, t in state.model.named_tensors()}
    buffers = {f"{kind}.{name}": moments[name]
               for kind, moments in (("m", state.opt.m), ("v", state.opt.v))
               for name in sorted(moments)}
    save_checkpoint(path, state.cfg.snapshot_json(), tensors, buffers,
                    stage=state.stage, epochs_done=state.epochs_done,
                    adam_t=state.opt.t, rng_state=state.rng.get_state())


def load_weights(state: TrainerState, tensors: dict[str, np.ndarray]) -> None:
    """Copy ``tensors`` into the run's parameters; they must name every
    tensor of the model, each with its shape, and nothing else. Nothing is
    copied unless all of them fit."""
    names = dict(state.model.named_tensors())
    missing, extra = names.keys() - tensors.keys(), tensors.keys() - names.keys()
    if missing or extra:
        raise ValueError(f"weights do not match model "
                         f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
    for name, array in tensors.items():
        if names[name].data.shape != array.shape:
            raise ValueError(f"tensor {name} has shape {array.shape}, "
                             f"model expects {names[name].data.shape}")
    for name, array in tensors.items():
        names[name].data[...] = array


# config keys a resumed run may change: its epoch budget, in stage order
RESUMABLE_CHANGES = ("pretrain_epochs", "finetune_epochs")


def _config_differences(saved: dict, current: dict, prefix: str = "") -> list[str]:
    """Qualified keys whose values differ, apart from RESUMABLE_CHANGES."""
    keys = []
    for key in sorted(set(saved) | set(current)):
        old, new = saved.get(key), current.get(key)
        if isinstance(old, dict) and isinstance(new, dict):
            keys += _config_differences(old, new, f"{prefix}{key}.")
        elif old != new and prefix + key not in RESUMABLE_CHANGES:
            keys.append(prefix + key)
    return keys


def load_state(path, cfg: TrainConfig, graph: KnowledgeGraph) -> TrainerState:
    """Resume the run a checkpoint file holds, exactly: parameters, optimizer
    moments, counters, stage and generator position.

    The one resume path. Only the epoch counts of ``cfg`` may differ from
    the checkpoint's config, and the saved stage's count may not fall below
    the epochs it has done (else ConfigError naming the keys). The stage
    must be 0 or 1, and the optimizer buffers must be the ``m.`` and ``v.``
    moments of the tensors the stage trains, shaped like them, both for
    each once a step has run (else CheckpointError naming the buffer), and
    the generator state 4 words, not all zero (else CheckpointError).
    """
    data = load_checkpoint(path)
    changed = _config_differences(data.config, cfg.to_dict())
    if changed:
        raise ConfigError(f"checkpoint {path} was saved with a different config "
                          f"(differing keys: {', '.join(changed)})")
    if data.stage not in (STAGE_PRETRAIN, STAGE_FINETUNE):
        raise CheckpointError(f"checkpoint {path}: stage {data.stage} is neither 0 nor 1")
    key = RESUMABLE_CHANGES[data.stage]
    if getattr(cfg, key) < data.epochs_done:
        raise ConfigError(f"{key}: {getattr(cfg, key)} is below the {data.epochs_done} "
                          f"epochs checkpoint {path} has done")
    state = make_run(cfg, graph, data.tensors)
    start_stage(state, data.stage)
    trained = {name: t.data.shape for name, t in state.model.named_tensors()
               if t.requires_grad}
    kept = {f"{kind}.{name}" for name in trained for kind in "mv"} if data.adam_t else set()
    odd = sorted(data.opt_buffers.keys() - kept) or sorted(kept - data.opt_buffers.keys())
    if odd:
        what = "is missing" if odd[0] in kept else "is no moment of a tensor the stage trains"
        raise CheckpointError(f"checkpoint {path}: optimizer buffer {odd[0]} {what}")
    state.epochs_done = data.epochs_done
    state.opt = AdamState(t=data.adam_t)
    for name, array in data.opt_buffers.items():
        kind, _, tensor_name = name.partition(".")
        if array.shape != trained[tensor_name]:
            raise CheckpointError(f"checkpoint {path}: optimizer buffer {name} has shape "
                                  f"{array.shape}, {tensor_name} has {trained[tensor_name]}")
        (state.opt.m if kind == "m" else state.opt.v)[tensor_name] = array.copy()
    try:
        state.rng.set_state(data.rng_state)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: generator state is unusable: {exc}") from exc
    return state
