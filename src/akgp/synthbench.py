"""Synthetic knowledge-required classification tasks and the component
ablation harness.

The world assigns each entity one attribute independently of its image
prototype, so the label is statistically unrelated to the input features
given the entity: a model can only do better than memorizing entities by
reading the attribute off the knowledge graph. The ablation trains five
configurations of increasing knowledge integration on identical data and
reports per-seed accuracies.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig, WorldConfig
from .data import Example
from .kg import Triple, build_graph
from .rng import Rng, derive_seed
from .trainer import (
    STAGE_FINETUNE,
    PipelineVariant,
    collate_dataset,
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


def shuffle_labels(examples: list[Example], seed: int) -> list[Example]:
    """Control dataset: the same examples with labels permuted at random,
    severing whatever label signal the inputs carried."""
    labels = [ex.label for ex in examples]
    Rng(derive_seed(seed, "label_shuffle")).shuffle(labels)
    return [Example(ex.image_features.copy(), list(ex.token_ids), lab, ex.gold_node)
            for ex, lab in zip(examples, labels)]


def split_dataset(examples: list[Example], test_fraction: float = 0.2):
    """Deterministic disjoint split: leading examples train, trailing test."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    cut = len(examples) - max(1, int(round(len(examples) * test_fraction)))
    if cut < 1:
        raise ValueError("dataset too small to split")
    return examples[:cut], examples[cut:]


def evaluate_accuracy(predictions, labels) -> float:
    """Exact-match fraction."""
    preds = list(predictions)
    labs = list(labels)
    if len(preds) != len(labs):
        raise ValueError(f"{len(preds)} predictions but {len(labs)} labels")
    if not preds:
        raise ValueError("cannot score an empty prediction list")
    return sum(p == l for p, l in zip(preds, labs)) / len(preds)


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


def run_cell(triples: list[Triple], train: list[Example], test: list[Example],
             cfg: TrainConfig, variant: PipelineVariant, pretrain: bool,
             seed: int) -> float:
    """Train one (configuration, seed) cell from scratch; returns test accuracy."""
    cell_cfg = replace(cfg, seed=seed)
    graph = build_graph(triples, cell_cfg.d_k, derive_seed(seed, "graph"))
    state = make_run(cell_cfg, graph)
    train_batch = collate_dataset(state, train)
    if pretrain:
        for _ in range(cell_cfg.pretrain_epochs):
            pretrain_epoch(state, train_batch)
    start_stage(state, STAGE_FINETUNE)
    for _ in range(cell_cfg.finetune_epochs):
        finetune_epoch(state, train_batch, variant)
    return evaluate(state, test, variant)["accuracy"]


def run_ablation(triples: list[Triple], train: list[Example],
                 test: list[Example], cfg: TrainConfig, seeds: list[int],
                 n_threads: int = 1) -> list[AblationRow]:
    """Train and evaluate all five configurations on identical splits.

    Cells are independent; with ``n_threads`` > 1 they run in a thread pool
    and results are aggregated in (configuration, seed) order regardless of
    completion order.
    """
    if len(seeds) < 3:
        raise ValueError(f"need at least 3 seeds, got {len(seeds)}")
    train_ids = {id(ex) for ex in train}
    if any(id(ex) in train_ids for ex in test):
        raise ValueError("train and test splits overlap")

    cells = [(ci, seed) for ci in range(len(ABLATION_CONFIGS)) for seed in seeds]

    def run_one(cell):
        ci, seed = cell
        name, variant, pretrain = ABLATION_CONFIGS[ci]
        return cell, run_cell(triples, train, test, cfg, variant, pretrain, seed)

    results: dict[tuple[int, int], float] = {}
    if n_threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as pool:
            for cell, acc in pool.map(run_one, cells):
                results[cell] = acc
    else:
        for cell in cells:
            key, acc = run_one(cell)
            results[key] = acc

    rows: list[AblationRow] = []
    baseline_mean = None
    for ci, (name, _, _) in enumerate(ABLATION_CONFIGS):
        accs = [results[(ci, seed)] for seed in seeds]
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
