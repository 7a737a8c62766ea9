"""Synthetic knowledge-required classification tasks and the component
ablation harness.

The world assigns each entity one attribute independently of its image
prototype, so the label is statistically unrelated to the input features
given the entity: a model can only do better than memorizing entities by
reading the attribute off the knowledge graph. The ablation trains five
configurations of increasing knowledge integration on identical data and
reports per-seed accuracies. Every seed shares one graph and one
collation of each split, a seed's configurations share its initial model
and pretraining, the cells of one unit share its fine-tuning stage (see
:func:`_run_share`), and the seeds' work is shared out among the usable cores.
"""

from __future__ import annotations

import copy
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig, WorldConfig
from .data import Batch, Example, collate
from .kg import KnowledgeGraph, Triple
from .rng import Rng, derive_seed
from .trainer import (
    STAGE_FINETUNE,
    PipelineVariant,
    TrainerState,
    evaluate,
    finetune_epoch,
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


def run_cell(stage: TrainerState, train: Batch, test: Batch, variant: PipelineVariant) -> float:
    """Test accuracy of one (configuration, seed) cell, fine-tuned on a copy
    of ``stage``, its unit's run as it entered fine-tuning. The copy shares
    the run's graph and :class:`StageCache`, which every cell may fill."""
    state = copy.deepcopy(stage, {id(stage.graph): stage.graph, id(stage.cache): stage.cache})
    for _ in range(state.cfg.finetune_epochs):
        finetune_epoch(state, train, variant)
    return evaluate(state, test, variant)["accuracy"]


def _exit_if_orphaned(caller: int | None) -> None:
    """Exit a forked share whose ``caller`` died by a signal it could not pass on."""
    if caller is not None and os.getppid() != caller:
        os._exit(1)


def _unit_cells(pretrain: bool) -> list[int]:
    """Indices into ``ABLATION_CONFIGS`` of the configurations that start from
    the pretrained weights (``pretrain``) or from the initial ones."""
    return [ci for ci, (_, _, from_pretrained) in enumerate(ABLATION_CONFIGS)
            if from_pretrained == pretrain]


def _run_share(share, graph, train, test, cfg, caller: int | None = None) -> list:
    """``(position, accuracy or exception)`` records of the ``(seed index,
    seed, pretrain)`` units of a share. A position is where one process
    running the seeds in turn would be: ``(seed index, -1)`` in a seed's
    set-up and pretraining, then ``(seed index, index in ABLATION_CONFIGS)``.

    A unit makes its seed's run from the shared graph and collated splits,
    pretrains it if it is a chain (pretraining never reads the variant),
    enters the fine-tuning stage once, at its first cell's position, and
    runs each cell on a copy of that run. It stops at its first failure. A
    unit whose seed index is above that of a failure is skipped: it cannot
    hold the first failure.
    """
    records, failed_at = [], None
    for index, seed, pretrain in share:
        _exit_if_orphaned(caller)
        if failed_at is not None and index > failed_at:
            continue
        cells = _unit_cells(pretrain)
        position = (index, -1 if pretrain else cells[0])
        try:
            state = make_run(replace(cfg, seed=seed), graph)
            for _ in range(cfg.pretrain_epochs if pretrain else 0):
                pretrain_epoch(state, train)
            position = (index, cells[0])
            start_stage(state, STAGE_FINETUNE)
            for ci in cells:
                _exit_if_orphaned(caller)
                position = (index, ci)
                records.append((position, run_cell(state, train, test, ABLATION_CONFIGS[ci][1])))
        except Exception as exc:  # the caller raises the first in the serial order
            records.append((position, exc))
            failed_at = index
    return records


def _send_share(sender, share, graph, train, test, cfg, caller: int) -> None:
    sender.send(_run_share(share, graph, train, test, cfg, caller))
    sender.close()


def _share_count(n_units: int) -> int:
    """One share per usable core, at most one per unit; one share where fork
    or the affinity mask is unavailable, or where another thread runs, which
    could hold a lock that a forked child would wait on forever."""
    import multiprocessing  # here, not at the top: no other command loads it

    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_units)


def _run_units(graph, train, test, cfg, seeds: list[int]) -> list:
    """Every share's records, as :func:`_run_share` gives them.

    Each seed is two units: its pretraining chain and its cells from the
    initial weights. The units, longest first, are dealt in turn into one
    share per usable core. The caller works share 0; each other share runs
    in a forked child, which inherits the inputs without pickling and sends
    its records back over a pipe. Every child is joined before this returns
    or raises, and exits early if the caller dies first.
    """
    import multiprocessing

    units = [(i, seed, pretrain) for pretrain in (True, False)
             for i, seed in enumerate(seeds)]
    n_shares = _share_count(len(units))
    shares = [units[k::n_shares] for k in range(n_shares)]
    context = multiprocessing.get_context("fork") if n_shares > 1 else None
    caller, children = os.getpid(), []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_share,
                                    args=(sender, share, graph, train, test, cfg, caller))
            child.start()
            sender.close()
            children.append((child, receiver))
        records = _run_share(shares[0], graph, train, test, cfg)
        for child, receiver in children:
            try:
                records += receiver.recv()
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
    return records


def run_ablation(graph: KnowledgeGraph, train: list[Example],
                 test: list[Example], cfg: TrainConfig, seeds: list[int]) -> list[AblationRow]:
    """Train and evaluate the five configurations on identical splits for
    each seed, on every usable core. Both splits are collated once, against
    ``graph``, for every seed. The rows do not depend on the core count; a
    failure raises the exception that running the seeds one after another
    in one process would raise: the one recorded at the smallest position."""
    if len(seeds) < 3:
        raise ValueError(f"need at least 3 seeds, got {len(seeds)}")
    train_ids = {id(ex) for ex in train}
    if any(id(ex) in train_ids for ex in test):
        raise ValueError("train and test splits overlap")
    cfg.validate(graph.n_nodes)  # as every unit's run does first
    train_batch, test_batch = (collate(split, cfg.vocab_size, graph.node_index)
                               for split in (train, test))
    records = dict(_run_units(graph, train_batch, test_batch, cfg, seeds))
    failures = [position for position, outcome in records.items()
                if isinstance(outcome, Exception)]
    if failures:
        raise records[min(failures)]

    rows: list[AblationRow] = []
    baseline_mean = None
    for ci, (name, _, _) in enumerate(ABLATION_CONFIGS):
        accs = [records[index, ci] for index in range(len(seeds))]
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
