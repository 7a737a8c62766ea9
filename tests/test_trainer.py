"""Stage contracts, freeze guarantees, determinism, and evaluation."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import akgp.model
from akgp.config import ConfigError, TrainConfig, WorldConfig
from akgp.kg import build_graph
from akgp.losses import align_loss_batch, loss_cls_batch, loss_total
from akgp.optim import adam_step
from akgp.retrieval import sample_negatives_batch
from akgp.synthbench import gen_dataset, gen_world
from akgp import trainer
from akgp.tensor import Tape, Tensor, backward
from akgp.trainer import (
    FULL_PIPELINE,
    STAGE_FINETUNE,
    NumericError,
    PipelineVariant,
    _positive_indices,
    collate_dataset,
    evaluate,
    finetune_epoch,
    knowledge_matrix,
    load_state,
    load_weights,
    make_run,
    pretrain_epoch,
    save_state,
    start_stage,
)


def tiny_setup(seed=0, n_examples=64, n_entities=6, **cfg_overrides):
    cfg = TrainConfig(**{
        "d_i": 6, "d_t": 6, "d_m": 8, "d_k": 5, "d_h": 6, "d_a": 8,
        "vocab_size": n_entities + 14, "n_classes": 3, "batch_size": 16, "seed": seed,
        "world": WorldConfig(n_entities=n_entities, n_attributes=3, n_examples=n_examples,
                             sigma_noise=0.5, seed=99),
        **cfg_overrides,
    })
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, n_examples, seed=7)
    graph = build_graph(world.triples)
    return cfg, world, data, graph


def group_bytes(model, group):
    return {name: t.data.tobytes() for name, t in model.groups()[group].items()}


def test_pretrain_loss_decreases():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    losses = [pretrain_epoch(state, data)["mean_align_loss"] for _ in range(20)]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert losses[-1] < losses[0]
    assert drops >= 15


def test_two_example_run_descends_almost_every_epoch():
    # full batch plus all-nodes negatives makes each epoch a deterministic
    # gradient step, so the loss curve is essentially monotone
    cfg = TrainConfig(
        d_i=6, d_t=6, d_m=8, d_k=5, d_h=6, d_a=8, vocab_size=20,
        n_classes=3, batch_size=2, n_negatives=8, seed=2,
        world=WorldConfig(n_entities=6, n_attributes=3, n_examples=2,
                          sigma_noise=0.3, seed=9),
    )
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, 2, seed=5)
    graph = build_graph(world.triples)
    state = make_run(cfg, graph)
    losses = [pretrain_epoch(state, data)["mean_align_loss"] for _ in range(50)]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 45
    assert losses[-1] < losses[0]


def test_untrained_model_scores_chance_on_large_sample():
    cfg = TrainConfig(seed=123)
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, 1000, seed=77)
    graph = build_graph(world.triples)
    state = make_run(cfg, graph)
    accuracy = evaluate(state, data)["accuracy"]
    assert abs(accuracy - 0.25) <= 0.05


def test_pretrain_ignores_loss_weights():
    cfg1, _, data, graph1 = tiny_setup(lambda1=1.0, lambda2=1.0)
    cfg2, _, _, graph2 = tiny_setup(lambda1=0.25, lambda2=7.0)
    s1, s2 = make_run(cfg1, graph1), make_run(cfg2, graph2)
    r1 = [pretrain_epoch(s1, data)["mean_align_loss"] for _ in range(3)]
    r2 = [pretrain_epoch(s2, data)["mean_align_loss"] for _ in range(3)]
    assert r1 == r2


def test_pretrain_leaves_task_adaptor_bit_identical():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    before = group_bytes(state.model, "theta_a")
    for _ in range(5):
        pretrain_epoch(state, data)
    assert group_bytes(state.model, "theta_a") == before


def test_pretrain_changes_backbone_and_knowledge():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    before = {g: group_bytes(state.model, g) for g in ("theta_v", "theta_t", "theta_m", "theta_k")}
    pretrain_epoch(state, data)
    for g, snap in before.items():
        assert group_bytes(state.model, g) != snap, g


def test_finetune_default_policy_freezes_backbone():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    pretrain_epoch(state, data)
    start_stage(state, STAGE_FINETUNE)
    frozen_before = {g: group_bytes(state.model, g)
                     for g in ("theta_v", "theta_t", "theta_m", "theta_k")}
    trainable_before = {g: group_bytes(state.model, g) for g in ("w_g", "theta_a")}
    for _ in range(5):
        finetune_epoch(state, data)
    for g, snap in frozen_before.items():
        assert group_bytes(state.model, g) == snap, f"{g} changed while frozen"
    for g, snap in trainable_before.items():
        assert group_bytes(state.model, g) != snap, f"{g} never trained"


def test_finetune_task_only_when_alignment_weight_zero():
    cfg, _, data, graph = tiny_setup(lambda1=0.0)
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    stats = finetune_epoch(state, data)
    assert stats["mean_total_loss"] == pytest.approx(stats["mean_task_loss"] * cfg.lambda2)


def test_finetune_accuracy_stays_chance_without_task_weight():
    cfg, _, data, graph = tiny_setup(lambda2=0.0, n_examples=120)
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    for _ in range(5):
        finetune_epoch(state, data)
    accuracy = evaluate(state, data)["accuracy"]
    assert accuracy <= 1.0 / cfg.n_classes + 0.2


def test_identical_seeds_identical_trajectories():
    cfg, _, data, graph = tiny_setup(seed=5)
    cfg2, _, data2, graph2 = tiny_setup(seed=5)
    s1, s2 = make_run(cfg, graph), make_run(cfg2, graph2)
    t1 = [pretrain_epoch(s1, data)["mean_align_loss"] for _ in range(4)]
    t2 = [pretrain_epoch(s2, data2)["mean_align_loss"] for _ in range(4)]
    assert t1 == t2  # bit-identical
    start_stage(s1, STAGE_FINETUNE)
    start_stage(s2, STAGE_FINETUNE)
    f1 = [finetune_epoch(s1, data)["mean_total_loss"] for _ in range(3)]
    f2 = [finetune_epoch(s2, data2)["mean_total_loss"] for _ in range(3)]
    assert f1 == f2
    for (n1, p1), (n2, p2) in zip(s1.model.named_tensors(), s2.model.named_tensors()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()


def test_different_seeds_diverge():
    cfg1, _, data, graph1 = tiny_setup(seed=1)
    cfg2, _, _, graph2 = tiny_setup(seed=2)
    s1, s2 = make_run(cfg1, graph1), make_run(cfg2, graph2)
    a = pretrain_epoch(s1, data)["mean_align_loss"]
    b = pretrain_epoch(s2, data)["mean_align_loss"]
    assert a != b


def test_stage_guards():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    with pytest.raises(RuntimeError):
        finetune_epoch(state, data)
    start_stage(state, STAGE_FINETUNE)
    with pytest.raises(RuntimeError):
        pretrain_epoch(state, data)
    with pytest.raises(ValueError):
        finetune_epoch(state, [])


def test_epochs_that_draw_more_negatives_than_other_nodes_name_the_key():
    # 6 entities and 3 attributes: 9 nodes, so at most 8 negatives
    cfg, _, data, graph = tiny_setup(n_negatives=9)
    state = make_run(cfg, graph)
    for stage, run_epoch, overrides in [
            (trainer.STAGE_PRETRAIN, pretrain_epoch, {}),
            (STAGE_FINETUNE, finetune_epoch, {}),
            (STAGE_FINETUNE, finetune_epoch, {"freeze": ["theta_v"]})]:
        state.cfg = dataclasses.replace(cfg, **overrides)
        start_stage(state, stage)
        drawn = state.rng.get_state()
        with pytest.raises(ConfigError, match=r"^n_negatives: 9 negatives need at least 10 "
                                              r"knowledge nodes; the graph has 9$"):
            run_epoch(state, data)
        assert state.rng.get_state() == drawn and state.opt.t == 0  # nothing was drawn
    # fine-tuning without the alignment term, or without retrieval, draws none
    for overrides, variant in [({"lambda1": 0.0}, FULL_PIPELINE),
                               ({}, PipelineVariant(knowledge="mean"))]:
        state.cfg = dataclasses.replace(cfg, **overrides)
        start_stage(state, STAGE_FINETUNE)
        assert np.isfinite(finetune_epoch(state, data, variant)["mean_total_loss"])


def test_nan_mid_run_raises_numeric_error():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    state.model.theta_m["weight"].data[0, 0] = float("nan")
    with pytest.raises(NumericError) as exc:
        pretrain_epoch(state, data)
    assert exc.value.step == 1


def test_nan_during_finetune_raises_numeric_error():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    state.model.theta_a["w_out"].data[0, 0] = float("nan")
    with pytest.raises(NumericError) as exc:
        finetune_epoch(state, data)
    assert exc.value.step == 1


def test_cached_knowledge_used_when_frozen():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    assert state.cache.knowledge is not None
    cached = state.cache.knowledge.data.copy()
    finetune_epoch(state, data)
    assert np.array_equal(state.cache.knowledge.data, cached)


def test_unfrozen_knowledge_recomputes_and_trains():
    cfg, _, data, graph = tiny_setup(freeze=["theta_v", "theta_t", "theta_m"])
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    assert state.cache.knowledge is None
    before = group_bytes(state.model, "theta_k")
    finetune_epoch(state, data)
    assert group_bytes(state.model, "theta_k") != before


def test_evaluate_matches_loop_oracle():
    cfg, _, data, graph = tiny_setup(n_examples=50)
    state = make_run(cfg, graph)
    pretrain_epoch(state, data)
    start_stage(state, STAGE_FINETUNE)
    finetune_epoch(state, data)
    got = evaluate(state, data)

    from akgp.data import collate
    from akgp.losses import loss_cls
    from akgp.tensor import from_array
    knowledge = knowledge_matrix(state)
    correct = 0
    hits = 0
    losses = []
    for ex in data:
        batch = collate([ex], cfg.vocab_size, graph.node_index)
        logits, retrieved = trainer._task_head(
            state.model, knowledge, trainer._encode(state.model, batch), FULL_PIPELINE)
        pred = int(np.argmax(logits.data[0]))
        correct += pred == ex.label
        losses.append(loss_cls(from_array(logits.data[0]), ex.label).item())
        hits += int(retrieved[0]) == graph.node_index[ex.gold_node]
    assert got["accuracy"] == pytest.approx(correct / len(data), abs=1e-12)
    assert got["mean_loss"] == pytest.approx(np.mean(losses), abs=1e-9)
    assert got["retrieval_hit_rate"] == pytest.approx(hits / len(data), abs=1e-12)


def test_evaluate_single_correct_example():
    cfg, _, data, graph = tiny_setup(n_examples=30)
    state = make_run(cfg, graph)
    found = None
    for ex in data:
        batch_metrics = evaluate(state, [ex])
        if batch_metrics["accuracy"] == 1.0:
            found = ex
            break
    assert found is not None
    assert evaluate(state, [found])["accuracy"] == 1.0


def test_variant_none_ignores_graph():
    cfg, _, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    variant = PipelineVariant(knowledge="none", gate=False)
    stats = finetune_epoch(state, data, variant)
    assert stats["mean_total_loss"] == pytest.approx(stats["mean_task_loss"])


def test_collated_dataset_trains_like_the_example_list():
    runs = []
    for collated in (False, True):
        cfg, _, data, graph = tiny_setup()
        state = make_run(cfg, graph)
        dataset = collate_dataset(state, data) if collated else data
        stats = [pretrain_epoch(state, dataset)]
        start_stage(state, STAGE_FINETUNE)
        stats += [finetune_epoch(state, dataset), evaluate(state, dataset)]
        runs.append((stats, [t.data.tobytes() for _, t in state.model.named_tensors()]))
    assert runs[0] == runs[1]


def finetune_epoch_step_by_step(state, data, variant=FULL_PIPELINE):
    """Oracle: every step encodes its batch, retrieves, draws its negatives,
    and evaluates its alignment term and checks inside the step, as
    fine-tuning did before frozen inputs were encoded once per stage and
    frozen alignment terms were evaluated ahead of the steps."""
    cfg = state.cfg
    dataset = collate_dataset(state, data)
    order = list(range(len(dataset)))
    state.rng.shuffle(order)
    total_loss, total_task, correct = 0.0, 0.0, 0
    for lo in range(0, len(order), cfg.batch_size):
        batch = dataset.take(order[lo:lo + cfg.batch_size])
        step = state.opt.t + 1
        with Tape() as tape:
            knowledge = knowledge_matrix(state)
            fused = trainer._encode(state.model, batch)
            logits, retrieved = trainer._task_head(state.model, knowledge, fused, variant)
            task = loss_cls_batch(logits, batch.labels)
            align = Tensor(np.asarray(0.0))
            if variant.knowledge == "retrieve" and cfg.lambda1 > 0:
                positives = _positive_indices(cfg, batch.gold_indices, fused, knowledge,
                                              retrieved)
                negatives = sample_negatives_batch(positives, knowledge.shape[0],
                                                   cfg.n_negatives, state.rng)
                align = align_loss_batch(fused, knowledge, positives, negatives,
                                         cfg.tau, cfg.denominator)
            for what, value in (("alignment loss", align.item()), ("task loss", task.item())):
                if not np.isfinite(value):
                    raise NumericError(step, f"{what} became non-finite")
            loss = loss_total(align, task, cfg.lambda1, cfg.lambda2)
        if not np.isfinite(loss.item()):
            raise NumericError(step, "total loss became non-finite")
        backward(loss, tape)
        adam_step(state.model, state.opt, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        correct += int((logits.data.argmax(axis=1) == batch.labels).sum())
        total_loss += loss.item() * len(batch)
        total_task += task.item() * len(batch)
    state.epochs_done += 1
    return {"mean_total_loss": total_loss / len(order),
            "mean_task_loss": total_task / len(order), "accuracy": correct / len(order)}


def pretrain_epoch_step_by_step(state, data):
    """Oracle: the pretraining loop as it was before both stages shared one
    epoch loop, with its batching and negative-sampling helpers inlined."""
    if state.stage != trainer.STAGE_PRETRAIN:
        raise RuntimeError("state is not in the pretraining stage")
    dataset = collate_dataset(state, data)
    cfg = state.cfg
    order = list(range(len(dataset)))
    state.rng.shuffle(order)
    total, count = 0.0, 0
    for lo in range(0, len(order), cfg.batch_size):
        batch = dataset.take(np.asarray(order[lo:lo + cfg.batch_size], dtype=np.int64))
        with Tape() as tape:
            knowledge = knowledge_matrix(state)
            fused = trainer._encode(state.model, batch)
            positives = _positive_indices(cfg, batch.gold_indices, fused, knowledge)
            negatives = sample_negatives_batch(positives, knowledge.shape[0],
                                               cfg.n_negatives, state.rng)
            loss = align_loss_batch(fused, knowledge, positives, negatives,
                                    cfg.tau, cfg.denominator)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(state.opt.t + 1, "alignment loss became non-finite")
        backward(loss, tape)
        adam_step(state.model, state.opt, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        total += value * len(batch)
        count += len(batch)
    state.epochs_done += 1
    return {"mean_align_loss": total / count}


# a graph of 1,103 nodes with steps of 32 rows and the default 8 negatives
GRAPH_1K = {"n_entities": 1100, "batch_size": 32}


@pytest.mark.parametrize("denominator", ["positive_included", "negatives_only"])
@pytest.mark.parametrize("positive_source", ["gold_node", "retrieved"])
def test_pretraining_equals_step_by_step_oracle(positive_source, denominator):
    _assert_pretraining_equals_step_by_step_oracle(positive_source=positive_source,
                                                   denominator=denominator)


def test_pretraining_on_a_1k_node_graph_equals_step_by_step_oracle():
    _assert_pretraining_equals_step_by_step_oracle(**GRAPH_1K)


def _rows_path_steps(monkeypatch) -> list[bool]:
    """Records, for each step that could, whether it took the rows path."""
    taken, loss_rows = [], trainer._loss_rows

    def recorded(*args):
        rows = loss_rows(*args)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr(trainer, "_loss_rows", recorded)
    return taken


# a graph of 1,103 nodes with 3 negatives per row: a full step reads about
# 120 knowledge rows, which mostly hold fewer entries than there are nodes
ROWS_PATH = {"n_entities": 1100, "batch_size": 32, "n_negatives": 3}


def _attribute_golds(data):
    """Every fifth example with an attribute node as its gold node, the
    three attributes in turn."""
    return [dataclasses.replace(e, gold_node=f"attribute_{i // 5 % 3}") if i % 5 == 0 else e
            for i, e in enumerate(data)]


def test_pretraining_on_the_rows_path_equals_step_by_step_oracle(monkeypatch):
    taken = _rows_path_steps(monkeypatch)
    _assert_pretraining_equals_step_by_step_oracle(edit=_attribute_golds, **ROWS_PATH)
    # 2 epochs of 3 steps. An attribute row holds an entry in a third of the
    # graph, so the full steps of 32 rows, which read several of the 14
    # attribute golds, read 1,770 to 1,830 entries, more than the 1,103
    # nodes, and encode every node; the last steps, of 6 rows, read 153 and
    # 514 entries and take the rows path
    assert len(taken) == 6 and True in taken and False in taken


def test_the_default_world_encodes_every_node(monkeypatch):
    taken = _rows_path_steps(monkeypatch)
    cfg = TrainConfig(pretrain_epochs=1)
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    graph = build_graph(world.triples)
    assert graph.n_nodes == 24
    state = make_run(cfg, graph)
    stats = pretrain_epoch(state, gen_dataset(world, 128, seed=1))
    # a step reads at least 9 rows of at least 4 entries: more than 24, so
    # no step checks whether only the rows it reads could be encoded
    assert state.opt.t == 4 and np.isfinite(stats["mean_align_loss"])
    assert taken == []


def _assert_pretraining_equals_step_by_step_oracle(edit=lambda data: data, **overrides):
    outcomes = []
    for run_epoch in (pretrain_epoch, pretrain_epoch_step_by_step):
        # 70 examples: in batches of 16, 4 full steps and a last one of 6
        cfg, _, data, graph = tiny_setup(n_examples=70, **overrides)
        data = edit(data)
        state = make_run(cfg, graph)
        dataset = collate_dataset(state, data)
        stats = [run_epoch(state, dataset) for _ in range(2)]
        outcomes.append((stats, state.rng.get_state(), state.opt.t, state.epochs_done,
                         [t.data.tobytes() for _, t in state.model.named_tensors()]))
    assert outcomes[0] == outcomes[1]


def _fine_tune_outcome(run_epoch, overrides, perturb=None, variant=FULL_PIPELINE,
                       edit=lambda data: data):
    # 300 examples in batches of 16: 18 full steps and a last one of 12
    cfg, _, data, graph = tiny_setup(n_examples=300, **overrides)
    data = edit(data)
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    dataset = collate_dataset(state, data)  # one batch: the epochs share its cache
    if perturb is not None:
        perturb(state)
    def params():
        return [t.data.tobytes() for _, t in state.model.named_tensors()]

    try:
        stats = [run_epoch(state, dataset, variant) for _ in range(2)]
    except NumericError as exc:  # where the run stopped, too
        return ("error", exc.step, str(exc), state.opt.t, params())
    return (stats, state.rng.get_state(), state.opt.t, params())


@pytest.mark.parametrize("words", [None, 1, 4000])  # default, every step, 4 steps
@pytest.mark.parametrize("overrides", [
    {},
    {"denominator": "negatives_only"},
    {"positive_source": "retrieved"},
    {"freeze": ["theta_v", "theta_t", "theta_m"]},  # knowledge trains: term on the tape
    GRAPH_1K,
])
def test_fine_tuning_equals_step_by_step_oracle(overrides, words, monkeypatch):
    if words is not None:
        monkeypatch.setattr(trainer, "_ALIGN_WORDS", words)
    outcome = _fine_tune_outcome(finetune_epoch, overrides)
    assert outcome[0][0]["mean_total_loss"] != outcome[0][0]["mean_task_loss"]
    assert outcome == _fine_tune_outcome(finetune_epoch_step_by_step, overrides)


def _every_third_without_gold(data):
    return [dataclasses.replace(e, gold_node=None) if i % 3 == 0 else e
            for i, e in enumerate(data)]


@pytest.mark.parametrize("words", [None, 1, 4000])  # default, every step, 4 steps
def test_frozen_alignment_terms_without_gold_nodes_equal_step_by_step_oracle(words,
                                                                             monkeypatch):
    # gen_dataset gives every example a gold node; here each step, and so each
    # group of steps, mixes gold positives with retrieved ones
    if words is not None:
        monkeypatch.setattr(trainer, "_ALIGN_WORDS", words)
    outcome = _fine_tune_outcome(finetune_epoch, {}, edit=_every_third_without_gold)
    assert outcome[0][0]["mean_total_loss"] != outcome[0][0]["mean_task_loss"]
    assert outcome == _fine_tune_outcome(finetune_epoch_step_by_step, {},
                                         edit=_every_third_without_gold)


ENCODERS = ["theta_v", "theta_t", "theta_m"]


@pytest.mark.parametrize("variant", [
    PipelineVariant(knowledge=knowledge, gate=gate)
    for knowledge in ("none", "mean", "retrieve") for gate in (False, True)])
@pytest.mark.parametrize("freeze,cached,retrieved", [
    (None, True, True),         # the default: encoders and knowledge frozen
    (ENCODERS, True, False),    # knowledge trains: fused rows cached, retrieval per step
    ([], False, False),         # encoders train: every step encodes
])
def test_encoded_dataset_equals_per_step_oracle(variant, freeze, cached, retrieved):
    overrides = {} if freeze is None else {"freeze": freeze}
    outcome = _fine_tune_outcome(finetune_epoch, overrides, variant=variant)
    assert outcome == _fine_tune_outcome(finetune_epoch_step_by_step, overrides,
                                         variant=variant)

    cfg, _, data, graph = tiny_setup(n_examples=40, **overrides)
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    finetune_epoch(state, collate_dataset(state, data), variant)
    assert (state.cache.fused is not None) == cached
    takes_top1 = retrieved and variant.knowledge == "retrieve"
    assert cached is False or (state.cache.retrieved is not None) == takes_top1


def _count_encodes(monkeypatch) -> list[int]:
    """Row counts of every encode_batch call the trainer makes."""
    rows = []
    encode = trainer.encode_batch

    def counted(images, token_bow, params):
        rows.append(images.shape[0])
        return encode(images, token_bow, params)

    monkeypatch.setattr(trainer, "encode_batch", counted)
    return rows


def test_frozen_encoders_encode_each_row_once_per_stage(monkeypatch):
    # work-count guard: 50 examples in batches of 16 are 4 encodes per stage
    cfg, _, data, graph = tiny_setup(n_examples=50)
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    dataset = collate_dataset(state, data)
    rows = _count_encodes(monkeypatch)
    for _ in range(3):
        finetune_epoch(state, dataset)
    assert rows == [16, 16, 16, 2]

    start_stage(state, STAGE_FINETUNE)  # a new stage drops the cache
    assert state.cache.fused is None
    finetune_epoch(state, dataset)
    assert len(rows) == 8
    other = collate_dataset(state, data)  # a different batch rebuilds it
    finetune_epoch(state, other)
    assert len(rows) == 12 and state.cache.batch is other


def _nan_knowledge_row(state):
    state.cache.knowledge.data[2] = np.nan


def _nan_adaptor_weight(state):
    state.model.theta_a["w_out"].data[0, 0] = np.nan


@pytest.mark.filterwarnings("ignore:overflow encountered")  # the oracle's scaled term
@pytest.mark.parametrize("overrides,perturb,term", [
    ({}, _nan_knowledge_row, "alignment loss"),   # checked before the task term
    ({}, _nan_adaptor_weight, "task loss"),
    ({"lambda1": 1e308}, None, "total loss"),      # finite terms, overflowing sum
])
def test_fine_tuning_fails_at_the_oracle_step_and_term(overrides, perturb, term):
    outcome = _fine_tune_outcome(finetune_epoch, overrides, perturb)
    assert outcome[0] == "error" and term in outcome[2]
    assert outcome == _fine_tune_outcome(finetune_epoch_step_by_step, overrides, perturb)



@pytest.mark.parametrize("edit, text", [
    (lambda w: w.pop("theta_a.b_out"), "missing ['theta_a.b_out'], unexpected []"),
    (lambda w: w.update({"theta_q.w": np.zeros(1)}), "missing [], unexpected ['theta_q.w']"),
    (lambda w: w.update({"theta_a.b_out": np.zeros(7)}),
     "tensor theta_a.b_out has shape (7,), model expects (3,)"),
], ids=["missing", "unexpected", "shape"])
def test_load_weights_takes_only_the_models_tensors(edit, text):
    cfg, _, _, graph = tiny_setup()
    state = make_run(cfg, graph)
    weights = {name: t.data + 1.0 for name, t in state.model.named_tensors()}
    load_weights(state, weights)
    assert all(np.array_equal(t.data, weights[name]) for name, t in state.model.named_tensors())
    edit(weights)
    weights = {name: array + 1.0 for name, array in weights.items()}
    before = [t.data.copy() for _, t in state.model.named_tensors()]
    with pytest.raises(ValueError, match=re.escape(text)):
        load_weights(state, weights)
    assert all(np.array_equal(t.data, b) for (_, t), b in zip(state.model.named_tensors(), before))
    with pytest.raises(ValueError, match=re.escape(text)):
        make_run(cfg, graph, weights)


def test_runs_from_weights_draw_nothing_and_own_their_arrays(monkeypatch, tmp_path):
    cfg, _, data, graph = tiny_setup()
    drawn = make_run(cfg, graph)
    pretrain_epoch(drawn, data)
    weights = {name: t.data.copy() for name, t in drawn.model.named_tensors()}
    save_state(tmp_path / "run.akgp", drawn)
    expected = make_run(cfg, graph)
    load_weights(expected, weights)

    def draw(*args, **kwargs):
        raise AssertionError("a model parameter was drawn")

    # the node features are a model parameter: this covers them too
    monkeypatch.setattr(akgp.model, "xavier", draw)
    runs = [make_run(cfg, graph, weights), load_state(tmp_path / "run.akgp", cfg, graph)]
    for run in runs:
        assert [name for name, _ in run.model.named_tensors()] == list(weights)
        for (_, t), (_, e) in zip(run.model.named_tensors(), expected.model.named_tensors()):
            assert t.data.dtype == e.data.dtype and t.data.shape == e.data.shape
            assert t.data.tobytes() == e.data.tobytes() and t.data.flags.writeable
    arrays = [t.data for run in (expected, *runs) for _, t in run.model.named_tensors()]
    arrays += list(weights.values())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_node_features_too_large_to_load_are_rejected_before_allocation(monkeypatch):
    # 2 x (2**27 + 1) node features are two elements past the most a
    # checkpoint loads; over the one node of the parse-time check they fit
    cfg = TrainConfig(d_k=2**27 + 1, d_h=1)
    cfg.validate()

    def allocate(*args, **kwargs):
        raise AssertionError("the model was allocated")

    monkeypatch.setattr(trainer, "init_model", allocate)
    with pytest.raises(ConfigError, match=r"^d_k: a 2 x 134217729 parameter"):
        make_run(cfg, build_graph([("a", "r", "b")]))


def test_step_costs_tool_runs():
    # tests/step_costs.py copies the fine-tuning epoch loop, so a trainer
    # change it does not follow breaks it
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "step_costs.py")
    result = subprocess.run([sys.executable, script, "--repeats", "1"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 11
