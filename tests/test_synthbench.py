"""World generation, dataset construction, and ablation harness mechanics."""

from dataclasses import replace

import numpy as np
import pytest

from akgp import synthbench, trainer
from akgp.config import TrainConfig, WorldConfig
from akgp.data import Example
from akgp.kg import build_graph
from akgp.rng import Rng, derive_seed
from akgp.synthbench import (
    ABLATION_CONFIGS,
    HAS_ATTRIBUTE,
    RELATED_TO,
    TEMPLATE_TOKENS,
    AblationRow,
    ablation_csv,
    ablation_markdown,
    gen_dataset,
    gen_world,
    run_ablation,
    split_dataset,
)
from akgp.trainer import (
    STAGE_FINETUNE,
    collate_dataset,
    evaluate,
    finetune_epoch,
    make_run,
    pretrain_epoch,
    start_stage,
)


def shuffle_labels(examples: list[Example], seed: int) -> list[Example]:
    """Control dataset: the same examples with labels permuted at random,
    severing whatever label signal the inputs carried."""
    labels = [ex.label for ex in examples]
    Rng(derive_seed(seed, "label_shuffle")).shuffle(labels)
    return [Example(ex.image_features.copy(), list(ex.token_ids), lab, ex.gold_node)
            for ex, lab in zip(examples, labels)]


def run_cell_from_scratch(triples, train, test, cfg, variant, pretrain, seed):
    """Oracle: one (configuration, seed) cell trained from scratch, as the
    ablation ran each cell before a seed's cells shared their graph, initial
    model and pretraining; returns the test ``evaluate`` dict."""
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
    return evaluate(state, test, variant)


def small_spec(**overrides):
    base = dict(n_entities=4, n_attributes=2, n_examples=60,
                n_distractors=1, sigma_noise=0.4, seed=5)
    base.update(overrides)
    return WorldConfig(**base)


def test_world_counts():
    spec = small_spec(n_entities=2, n_attributes=2, n_distractors=0)
    world = gen_world(spec, d_i=6, seed=1)
    attr_triples = [t for t in world.triples if t[1] == HAS_ATTRIBUTE]
    assert len(attr_triples) == 2
    assert all(t[1] in (HAS_ATTRIBUTE, RELATED_TO) for t in world.triples)


def test_world_prototypes_unit_norm():
    world = gen_world(small_spec(), d_i=8, seed=2)
    norms = np.linalg.norm(world.prototypes, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_world_deterministic():
    a = gen_world(small_spec(), d_i=6, seed=3)
    b = gen_world(small_spec(), d_i=6, seed=3)
    assert a.triples == b.triples
    assert np.array_equal(a.prototypes, b.prototypes)
    assert a.entity_attributes == b.entity_attributes


def test_world_attribute_assignment_balanced():
    world = gen_world(small_spec(n_entities=8, n_attributes=4), d_i=4, seed=4)
    counts = np.bincount(world.entity_attributes, minlength=4)
    assert counts.tolist() == [2, 2, 2, 2]


def test_world_every_attribute_used():
    for seed in range(5):
        world = gen_world(small_spec(n_entities=5, n_attributes=3), d_i=4, seed=seed)
        assert set(world.entity_attributes) == {0, 1, 2}


def test_dataset_zero_noise_recovers_prototype():
    world = gen_world(small_spec(sigma_noise=0.0), d_i=6, seed=6)
    data = gen_dataset(world, 10, seed=7)
    for ex in data:
        entity = world.entity_names.index(ex.gold_node)
        assert np.array_equal(ex.image_features, world.prototypes[entity])


def test_dataset_label_matches_assignment_map():
    world = gen_world(small_spec(), d_i=6, seed=8)
    data = gen_dataset(world, 500, seed=9)
    for ex in data:
        entity = world.entity_names.index(ex.gold_node)
        assert ex.label == world.entity_attributes[entity]
    # label frequencies track the (balanced) assignment within sampling error
    freqs = np.bincount([ex.label for ex in data], minlength=2) / len(data)
    assert np.all(np.abs(freqs - 0.5) < 0.08)


def test_dataset_tokens_mention_entity():
    world = gen_world(small_spec(), d_i=6, seed=10)
    data = gen_dataset(world, 20, seed=11)
    for ex in data:
        entity = world.entity_names.index(ex.gold_node)
        assert world.entity_token(entity) in ex.token_ids
        assert all(t < world.vocab_size for t in ex.token_ids)


def test_template_is_mostly_filler():
    world = gen_world(small_spec(), d_i=6, seed=12)
    tokens = world.question_tokens(0)
    entity_tokens = [t for t in tokens if t >= len(TEMPLATE_TOKENS)]
    assert len(entity_tokens) == 1
    assert len(tokens) >= 10


def test_split_disjoint_and_sized():
    world = gen_world(small_spec(), d_i=6, seed=13)
    data = gen_dataset(world, 100, seed=14)
    train, test = split_dataset(data, 0.2)
    assert len(train) == 80 and len(test) == 20
    assert not ({id(e) for e in train} & {id(e) for e in test})


def test_shuffled_labels_break_signal():
    world = gen_world(small_spec(), d_i=6, seed=15)
    data = gen_dataset(world, 200, seed=16)
    shuffled = shuffle_labels(data, seed=17)
    assert sorted(e.label for e in shuffled) == sorted(e.label for e in data)
    moved = sum(a.label != b.label for a, b in zip(data, shuffled))
    assert moved > 50


def tiny_cfg():
    return TrainConfig(
        d_i=6, d_t=6, d_m=8, d_k=5, d_h=6, d_a=8,
        vocab_size=len(TEMPLATE_TOKENS) + 4, n_classes=2, batch_size=16,
        n_negatives=3, pretrain_epochs=2, finetune_epochs=2,
        world=small_spec(),
    )


def test_run_ablation_structure_and_determinism():
    cfg = tiny_cfg()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, 60, seed=18)
    train, test = split_dataset(data)
    rows = run_ablation(world.triples, train, test, cfg, seeds=[0, 1, 2])
    assert [r.name for r in rows] == ["baseline", "+encoder", "+retrieval",
                                      "+alignment", "full"]
    assert all(len(r.accuracies) == 3 for r in rows)
    assert all(0.0 <= r.mean <= 1.0 for r in rows)
    assert rows[0].delta_vs_baseline == 0.0

    again = run_ablation(world.triples, train, test, cfg, seeds=[0, 1, 2])
    assert [r.accuracies for r in again] == [r.accuracies for r in rows]


@pytest.mark.parametrize("freeze", [None, ["theta_k"], []],  # None: the default
                         ids=["default", "theta_k", "nothing"])
def test_shared_cells_equal_from_scratch_oracle(freeze, monkeypatch):
    cfg = tiny_cfg() if freeze is None else replace(tiny_cfg(), freeze=freeze)
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    train, test = split_dataset(gen_dataset(world, 60, seed=23))
    seeds = [0, 1, 2]
    got = []

    def recorded(*args):
        got.append(evaluate(*args))
        return got[-1]

    monkeypatch.setattr(synthbench, "evaluate", recorded)
    run_ablation(world.triples, train, test, cfg, seeds)
    want = [run_cell_from_scratch(world.triples, train, test, cfg, variant, pretrain, seed)
            for seed in seeds for _, variant, pretrain in ABLATION_CONFIGS]
    assert got == want


def test_ablation_work_counts(monkeypatch):
    # work-count guard: a seed's cells share one graph, one pretraining and
    # one collation of each split
    cfg = tiny_cfg()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    train, test = split_dataset(gen_dataset(world, 60, seed=24))
    calls = {"build_graph": 0, "pretrain_epoch": 0, "run_cell": 0, "collate": 0}
    for name in calls:
        module = trainer if name == "collate" else synthbench
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    run_ablation(world.triples, train, test, cfg, seeds=[0, 1, 2])
    assert calls == {"build_graph": 3, "pretrain_epoch": 3 * cfg.pretrain_epochs,
                     "run_cell": 3 * len(ABLATION_CONFIGS), "collate": 3 * 2}


def test_run_ablation_validation():
    cfg = tiny_cfg()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, 40, seed=20)
    train, test = split_dataset(data)
    with pytest.raises(ValueError, match="seeds"):
        run_ablation(world.triples, train, test, cfg, seeds=[0, 1])
    with pytest.raises(ValueError, match="overlap"):
        run_ablation(world.triples, train, train[:5], cfg, seeds=[0, 1, 2])


def test_ablation_reports():
    rows = [
        AblationRow("baseline", [0.25, 0.30], 0.275, 0.0),
        AblationRow("full", [0.9, 1.0], 0.95, 0.675),
    ]
    csv = ablation_csv(rows, seeds=[7, 8])
    lines = csv.strip().split("\n")
    assert lines[0] == "config,seed,accuracy"
    assert lines[1] == "baseline,7,0.250000"
    assert len(lines) == 5
    md = ablation_markdown(rows)
    assert "| full | 0.9500 | +0.6750 |" in md


def test_label_shuffled_control_trains_to_chance():
    cfg = tiny_cfg()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = shuffle_labels(gen_dataset(world, 400, seed=21), seed=22)
    train, test = split_dataset(data)
    name, variant, pretrain = ABLATION_CONFIGS[-1]  # the full pipeline
    acc = run_cell_from_scratch(world.triples, train, test, cfg, variant, pretrain,
                                seed=0)["accuracy"]
    assert abs(acc - 0.5) <= 0.15  # chance for 2 classes, within sampling slack


def test_label_shuffled_control_at_default_scale():
    # shuffling labels severs the graph signal too; even the full pipeline
    # lands at chance on the default world
    cfg = TrainConfig()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = shuffle_labels(gen_dataset(world, cfg.world.n_examples,
                                      seed=cfg.world.seed), seed=31)
    train, test = split_dataset(data)
    name, variant, pretrain = ABLATION_CONFIGS[-1]
    acc = run_cell_from_scratch(world.triples, train, test, cfg, variant, pretrain,
                                seed=0)["accuracy"]
    assert abs(acc - 0.25) <= 0.05
