"""Stage contracts, freeze guarantees, determinism, and evaluation."""

import numpy as np
import pytest

from akgp.config import TrainConfig, WorldConfig
from akgp.kg import build_graph
from akgp.losses import align_loss_batch, loss_cls_batch, loss_total
from akgp.optim import adam_step
from akgp.retrieval import sample_negatives_batch
from akgp.rng import derive_seed
from akgp.synthbench import gen_dataset, gen_world
from akgp import trainer
from akgp.tensor import Tape, Tensor, backward
from akgp.trainer import (
    FULL_PIPELINE,
    STAGE_FINETUNE,
    NumericError,
    PipelineVariant,
    _knowledge_matrix,
    _positive_indices,
    collate_dataset,
    evaluate,
    finetune_epoch,
    forward_task_batch,
    make_run,
    pretrain_epoch,
    start_stage,
)


def tiny_setup(seed=0, n_examples=64, **cfg_overrides):
    cfg = TrainConfig(
        d_i=6, d_t=6, d_m=8, d_k=5, d_h=6, d_a=8,
        vocab_size=20, n_classes=3, batch_size=16, seed=seed,
        world=WorldConfig(n_entities=6, n_attributes=3, n_examples=n_examples,
                          sigma_noise=0.5, seed=99),
        **cfg_overrides,
    )
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, n_examples, seed=7)
    graph = build_graph(world.triples, cfg.d_k, derive_seed(cfg.seed, "graph"))
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
    graph = build_graph(world.triples, cfg.d_k, derive_seed(cfg.seed, "graph"))
    state = make_run(cfg, graph)
    losses = [pretrain_epoch(state, data)["mean_align_loss"] for _ in range(50)]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 45
    assert losses[-1] < losses[0]


def test_untrained_model_scores_chance_on_large_sample():
    cfg = TrainConfig(seed=123)
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, 1000, seed=77)
    graph = build_graph(world.triples, cfg.d_k, derive_seed(cfg.seed, "graph"))
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
    assert state.cached_knowledge is not None
    cached = state.cached_knowledge.data.copy()
    finetune_epoch(state, data)
    assert np.array_equal(state.cached_knowledge.data, cached)


def test_unfrozen_knowledge_recomputes_and_trains():
    cfg, _, data, graph = tiny_setup(freeze=["theta_v", "theta_t", "theta_m"])
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    assert state.cached_knowledge is None
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
    from akgp.trainer import _knowledge_matrix

    knowledge = _knowledge_matrix(state)
    correct = 0
    hits = 0
    losses = []
    for ex in data:
        batch = collate([ex], cfg.vocab_size, graph.node_index)
        logits, _, _, retrieved = forward_task_batch(state.model, knowledge, batch,
                                                     FULL_PIPELINE)
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
    """Oracle: every step draws its negatives and evaluates its alignment
    term and checks inside the step, as fine-tuning did before frozen
    alignment terms were evaluated several steps at a time."""
    cfg = state.cfg
    dataset = collate_dataset(state, data)
    order = list(range(len(dataset)))
    state.rng.shuffle(order)
    total_loss, total_task, correct = 0.0, 0.0, 0
    for lo in range(0, len(order), cfg.batch_size):
        batch = dataset.take(order[lo:lo + cfg.batch_size])
        step = state.opt.t + 1
        with Tape() as tape:
            knowledge = _knowledge_matrix(state)
            logits, fused, _, retrieved = forward_task_batch(
                state.model, knowledge, batch, variant)
            task = loss_cls_batch(logits, batch.labels)
            align = Tensor(np.asarray(0.0))
            if variant.knowledge == "retrieve" and cfg.lambda1 > 0:
                positives = _positive_indices(cfg, batch, fused, knowledge, retrieved)
                negatives = sample_negatives_batch(positives, knowledge.shape[0],
                                                   cfg.n_negatives, state.rng)
                align = align_loss_batch(fused, knowledge, positives, negatives,
                                         cfg.tau, cfg.denominator)
            for what, value in (("alignment loss", align.item()), ("task loss", task.item())):
                if not np.isfinite(value):
                    raise NumericError(step, f"{what} became non-finite")
            loss = loss_total(align, task, state.loss_config())
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


def _fine_tune_outcome(run_epoch, overrides, perturb=None, variant=FULL_PIPELINE):
    # 300 examples in batches of 16: 18 full steps and a last one of 12
    cfg, _, data, graph = tiny_setup(n_examples=300, **overrides)
    state = make_run(cfg, graph)
    start_stage(state, STAGE_FINETUNE)
    if perturb is not None:
        perturb(state)
    try:
        stats = [run_epoch(state, data, variant) for _ in range(2)]
    except NumericError as exc:
        return ("error", exc.step, str(exc))
    return (stats, state.rng.get_state(), state.opt.t,
            [t.data.tobytes() for _, t in state.model.named_tensors()])


@pytest.mark.parametrize("words", [None, 1, 4000])  # default, every step, 4 steps
@pytest.mark.parametrize("overrides", [
    {},
    {"denominator": "negatives_only"},
    {"positive_source": "retrieved"},
    {"freeze": ["theta_v", "theta_t", "theta_m"]},  # knowledge trains: no deferral
])
def test_fine_tuning_equals_step_by_step_oracle(overrides, words, monkeypatch):
    if words is not None:
        monkeypatch.setattr(trainer, "_DEFERRED_WORDS", words)
    outcome = _fine_tune_outcome(finetune_epoch, overrides)
    assert outcome[0][0]["mean_total_loss"] != outcome[0][0]["mean_task_loss"]
    assert outcome == _fine_tune_outcome(finetune_epoch_step_by_step, overrides)


def _nan_knowledge_row(state):
    state.cached_knowledge.data[2] = np.nan


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

