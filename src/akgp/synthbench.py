"""Synthetic knowledge-required classification tasks and the component
ablation harness.

The world assigns each entity one attribute independently of its image
prototype, so the label is statistically unrelated to the input features
given the entity: a model can only do better than memorizing entities by
reading the attribute off the knowledge graph. The ablation trains five
configurations of increasing knowledge integration on identical data and
reports per-seed accuracies; a seed's configurations share its graph,
initial model and pretraining, and the seeds' work is shared out among
the usable cores.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig, WorldConfig
from .data import Batch, Example
from .kg import Triple, build_graph
from .rng import Rng, derive_seed
from .trainer import (
    STAGE_FINETUNE,
    PipelineVariant,
    TrainerState,
    collate_dataset,
    evaluate,
    finetune_epoch,
    load_weights,
    make_run,
    pretrain_epoch,
    start_stage,
)

TEMPLATE_TOKENS = ["what", "attribute", "does", "the", "have", "?", "please",
                   "tell", "me", "about", "this", "one", "right", "now"]
HAS_ATTRIBUTE = "has_attribute"
RELATED_TO = "related_to"
DEFAULT_ABLATION_SEEDS = [0, 1, 3]


@dataclass
class World:
    """A generated benchmark world: graph triples plus entity prototypes."""

    spec: WorldConfig
    d_i: int
    vocab_size: int
    entity_names: list[str]
    attribute_names: list[str]
    entity_attributes: list[int]
    prototypes: np.ndarray  # (n_entities, d_i), unit rows
    triples: list[Triple]

    def entity_token(self, entity: int) -> int:
        return len(TEMPLATE_TOKENS) + entity

    def question_tokens(self, entity: int) -> list[int]:
        # "what attribute does the <entity> have ? please tell me about this
        # one right now" -- the filler words dilute the entity mention so a
        # bag-of-tokens encoder cannot lean on it too heavily
        return [0, 1, 2, 3, self.entity_token(entity)] + list(range(4, 14))


def gen_world(spec: WorldConfig, d_i: int, seed: int) -> World:
    """Build entities, a balanced attribute assignment, prototypes, and triples.

    Attributes are dealt round-robin and then shuffled, so every attribute
    is used and the assignment carries no geometric relationship to the
    prototypes drawn afterwards.
    """
    spec.validate()
    n, c = spec.n_entities, spec.n_attributes
    entity_names = [f"entity_{i:03d}" for i in range(n)]
    attribute_names = [f"attribute_{j}" for j in range(c)]

    assign_rng = Rng(derive_seed(seed, "attributes"))
    entity_attributes = [i % c for i in range(n)]
    assign_rng.shuffle(entity_attributes)

    proto_rng = Rng(derive_seed(seed, "prototypes"))
    prototypes = np.empty((n, d_i))
    for i in range(n):
        vec = np.array([proto_rng.normal() for _ in range(d_i)])
        prototypes[i] = vec / np.linalg.norm(vec)

    triples: list[Triple] = [
        (entity_names[i], HAS_ATTRIBUTE, attribute_names[entity_attributes[i]])
        for i in range(n)
    ]
    edge_rng = Rng(derive_seed(seed, "distractors"))
    for i in range(n):
        for _ in range(spec.n_distractors):
            j = edge_rng.randrange(n - 1)
            if j >= i:
                j += 1
            triples.append((entity_names[i], RELATED_TO, entity_names[j]))

    return World(
        spec=spec,
        d_i=d_i,
        vocab_size=len(TEMPLATE_TOKENS) + n,
        entity_names=entity_names,
        attribute_names=attribute_names,
        entity_attributes=entity_attributes,
        prototypes=prototypes,
        triples=triples,
    )


def gen_dataset(world: World, n_examples: int, seed: int) -> list[Example]:
    """Sample examples: noisy prototype image, templated question, and the
    entity's attribute as label."""
    if n_examples < 1:
        raise ValueError("n_examples must be >= 1")
    rng = Rng(derive_seed(seed, "dataset"))
    sigma = world.spec.sigma_noise
    d_i = world.d_i
    examples = []
    for _ in range(n_examples):
        entity = rng.randrange(world.spec.n_entities)
        noise = np.array([rng.normal() for _ in range(d_i)]) if sigma > 0 else np.zeros(d_i)
        examples.append(Example(
            image_features=world.prototypes[entity] + sigma * noise,
            token_ids=world.question_tokens(entity),
            label=world.entity_attributes[entity],
            gold_node=world.entity_names[entity],
        ))
    return examples


def split_dataset(examples: list[Example], test_fraction: float = 0.2):
    """Deterministic disjoint split: leading examples train, trailing test."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    cut = len(examples) - max(1, int(round(len(examples) * test_fraction)))
    if cut < 1:
        raise ValueError("dataset too small to split")
    return examples[:cut], examples[cut:]


# ---------------------------------------------------------------------------
# ablation


@dataclass
class AblationRow:
    name: str
    accuracies: list[float]
    mean: float
    delta_vs_baseline: float


ABLATION_CONFIGS: list[tuple[str, PipelineVariant, bool]] = [
    ("baseline", PipelineVariant(knowledge="none", gate=False), False),
    ("+encoder", PipelineVariant(knowledge="mean", gate=False), False),
    ("+retrieval", PipelineVariant(knowledge="retrieve", gate=False), False),
    ("+alignment", PipelineVariant(knowledge="retrieve", gate=False), True),
    ("full", PipelineVariant(knowledge="retrieve", gate=True), True),
]


def run_cell(state: TrainerState, weights: dict[str, np.ndarray], train: Batch,
             test: Batch, variant: PipelineVariant) -> float:
    """Fine-tune one (configuration, seed) cell on its seed's run, starting
    from ``weights`` (every named tensor); returns test accuracy."""
    load_weights(state, weights)
    start_stage(state, STAGE_FINETUNE)
    for _ in range(state.cfg.finetune_epochs):
        finetune_epoch(state, train, variant)
    return evaluate(state, test, variant)["accuracy"]


def _weights(state: TrainerState) -> dict[str, np.ndarray]:
    return {name: tensor.data.copy() for name, tensor in state.model.named_tensors()}


def _unit_cells(pretrain: bool) -> list[int]:
    """Indices into ``ABLATION_CONFIGS`` of the configurations that start from
    the pretrained weights (``pretrain``) or from the initial ones."""
    return [ci for ci, (_, _, from_pretrained) in enumerate(ABLATION_CONFIGS)
            if from_pretrained == pretrain]


def _run_unit(triples: list[Triple], train: list[Example], test: list[Example],
              cfg: TrainConfig, seed: int, pretrain: bool, accuracies: list[float]) -> None:
    """Append to ``accuracies`` the test accuracy of each configuration of one
    seed that starts from the pretrained weights (``pretrain``) or from the
    initial ones, in the order of :func:`_unit_cells`.

    A unit builds its seed's graph, initial model and collated splits, so it
    can run in any process; its cells share them, and the pretrained cells
    share one pretraining: it never reads the variant, so each would reach
    the same weights.
    """
    seed_cfg = replace(cfg, seed=seed)
    graph = build_graph(triples, seed_cfg.d_k, derive_seed(seed, "graph"))
    state = make_run(seed_cfg, graph)
    train_batch, test_batch = collate_dataset(state, train), collate_dataset(state, test)
    if pretrain:
        for _ in range(seed_cfg.pretrain_epochs):
            pretrain_epoch(state, train_batch)
    weights = _weights(state)
    for ci in _unit_cells(pretrain):
        accuracies.append(run_cell(state, weights, train_batch, test_batch,
                                   ABLATION_CONFIGS[ci][1]))


def _run_share(share, triples, train, test, cfg) -> list:
    """``(unit, accuracies, exception or None)`` for each ``(seed index, seed,
    pretrain)`` unit of a share. A unit whose seed index is above that of a
    failed unit is skipped: it cannot hold the first failure."""
    results, failed_at = [], None
    for unit in share:
        index, seed, pretrain = unit
        if failed_at is not None and index > failed_at:
            continue
        accuracies: list[float] = []
        try:
            _run_unit(triples, train, test, cfg, seed, pretrain, accuracies)
        except Exception as exc:  # the caller raises the first in the serial order
            results.append((unit, accuracies, exc))
            failed_at = index
        else:
            results.append((unit, accuracies, None))
    return results


def _send_share(sender, share, triples, train, test, cfg) -> None:
    sender.send(_run_share(share, triples, train, test, cfg))
    sender.close()


def _share_count(n_units: int) -> int:
    """One share per usable core, at most one per unit; one share where fork
    or the affinity mask is unavailable, or where another thread runs, which
    could hold a lock that a forked child would wait on forever."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_units)


def _run_units(triples, train, test, cfg, seeds: list[int]) -> list:
    """Every unit's result, as :func:`_run_share` gives them.

    Each seed is two units: its pretraining chain and its cells from the
    initial weights. The units, longest first, are dealt in turn into one
    share per usable core. The caller works share 0; each other share runs
    in a forked child, which inherits the inputs without pickling and sends
    its results back over a pipe. Every child is joined before this returns
    or raises.
    """
    units = [(i, seed, pretrain) for pretrain in (True, False)
             for i, seed in enumerate(seeds)]
    n_shares = _share_count(len(units))
    shares = [units[k::n_shares] for k in range(n_shares)]
    context = multiprocessing.get_context("fork") if n_shares > 1 else None
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_share,
                                    args=(sender, share, triples, train, test, cfg))
            child.start()
            sender.close()
            children.append((child, receiver))
        results = _run_share(shares[0], triples, train, test, cfg)
        for child, receiver in children:
            try:
                results += receiver.recv()
            except EOFError:  # it died without sending
                child.join()
                raise RuntimeError(f"ablation worker {child.pid} exited with code "
                                   f"{child.exitcode} before sending its results") from None
            child.join()
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():  # the caller was interrupted or a child died
                child.terminate()
            child.join()
    return results


def _serial_position(unit, accuracies: list[float]) -> tuple[int, int]:
    """Where a failed unit stopped, in the order one process would run the
    seeds: each seed's pretraining, then its cells in ``ABLATION_CONFIGS``
    order."""
    index, _, pretrain = unit
    if pretrain and not accuracies:  # in set-up or pretraining
        return index, -1
    return index, _unit_cells(pretrain)[len(accuracies)]


def run_ablation(triples: list[Triple], train: list[Example],
                 test: list[Example], cfg: TrainConfig, seeds: list[int]) -> list[AblationRow]:
    """Train and evaluate the five configurations on identical splits for
    each seed, on every usable core. The rows do not depend on the core
    count; a failure raises the exception that running the seeds one after
    another in one process would raise."""
    if len(seeds) < 3:
        raise ValueError(f"need at least 3 seeds, got {len(seeds)}")
    train_ids = {id(ex) for ex in train}
    if any(id(ex) in train_ids for ex in test):
        raise ValueError("train and test splits overlap")
    results = _run_units(triples, train, test, cfg, seeds)
    failures = [(_serial_position(unit, accs), exc) for unit, accs, exc in results if exc]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    accuracy = {(index, ci): acc for (index, _, pretrain), accs, _ in results
                for ci, acc in zip(_unit_cells(pretrain), accs)}

    rows: list[AblationRow] = []
    baseline_mean = None
    for ci, (name, _, _) in enumerate(ABLATION_CONFIGS):
        accs = [accuracy[index, ci] for index in range(len(seeds))]
        mean = sum(accs) / len(accs)
        if baseline_mean is None:
            baseline_mean = mean
        rows.append(AblationRow(name=name, accuracies=accs, mean=mean,
                                delta_vs_baseline=mean - baseline_mean))
    return rows


def ablation_csv(rows: list[AblationRow], seeds: list[int]) -> str:
    lines = ["config,seed,accuracy"]
    for row in rows:
        for seed, acc in zip(seeds, row.accuracies):
            lines.append(f"{row.name},{seed},{acc:.6f}")
    return "\n".join(lines) + "\n"


def ablation_markdown(rows: list[AblationRow]) -> str:
    lines = [
        "| configuration | mean accuracy | delta vs baseline | per-seed |",
        "|---|---|---|---|",
    ]
    for row in rows:
        per_seed = ", ".join(f"{a:.4f}" for a in row.accuracies)
        lines.append(f"| {row.name} | {row.mean:.4f} | "
                     f"{row.delta_vs_baseline:+.4f} | {per_seed} |")
    return "\n".join(lines) + "\n"
