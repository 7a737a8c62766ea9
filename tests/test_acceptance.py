"""Acceptance suite: each test enforces one release criterion at its stated
tolerance and prints a PASS line with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
The slowest criterion (the ablation ladder) takes a few minutes at most;
the whole suite is bounded by its stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from akgp.checkpoint import (
    BadMagicError,
    TruncatedCheckpointError,
    load_checkpoint,
)
from akgp.config import TrainConfig
from akgp.gradcheck import run_gradient_report
from akgp.kg import build_graph
from akgp.losses import loss_align, loss_cls, loss_gen
from akgp.retrieval import retrieve_top1, retrieve_topk
from akgp.synthbench import (
    ABLATION_CONFIGS,
    DEFAULT_ABLATION_SEEDS,
    gen_dataset,
    gen_world,
    run_ablation,
    split_dataset,
)
from akgp.tensor import cosine_sim, from_array, reshape, uniform, zeros
from akgp.trainer import (
    STAGE_FINETUNE,
    PipelineVariant,
    finetune_epoch,
    load_state,
    make_run,
    pretrain_epoch,
    save_state,
    start_stage,
)


def report(line):
    print(f"\n[acceptance] {line}")


def default_world_and_data():
    cfg = TrainConfig()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, cfg.world.n_examples, seed=cfg.world.seed)
    return cfg, world, data


def fresh_state(cfg, world):
    graph = build_graph(world.triples)
    return make_run(cfg, graph)


def test_criterion_1_gradient_suite():
    """Every primitive and both end-to-end objectives pass finite-difference
    checks (h=1e-5, rel tol 1e-4) over 100 seeds each, in under 60 s."""
    started = time.perf_counter()
    reports = run_gradient_report(master_seed=0, rounds=100, h=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - started
    failures = [r.name for r in reports if not r.passed]
    worst = max(r.max_rel_err for r in reports)
    assert not failures, f"gradient failures: {failures}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(f"criterion 1 PASS: {len(reports)} cases x 100 seeds, "
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_retrieval_oracle():
    """Exact agreement with brute-force scan and full sort on 200 queries
    over a 1000x32 matrix, ties included, in under 5 s."""
    started = time.perf_counter()
    base = uniform([1000, 32], -1.0, 1.0, 424242).data
    base[100] = base[900]          # engineered exact ties
    base[101] = base[900]
    base[500] = 2.0 * base[900]    # same direction; power-of-two scaling keeps
    knowledge = from_array(base)   # the cosine bitwise identical

    checked_queries = 0
    for q in range(200):
        if q % 10 == 0:  # some queries aimed straight at the tied direction
            query = from_array(base[900] * (0.5 + q / 100.0))
        else:
            query = uniform([32], -1.0, 1.0, 7000 + q)
        sims = [cosine_sim(query, from_array(row)).item() for row in base]
        order = sorted(range(1000), key=lambda i: (-sims[i], i))

        top1 = retrieve_top1(query, knowledge)
        assert top1.node_index == order[0]
        topk = retrieve_topk(query, knowledge, 10)
        assert [r.node_index for r in topk] == order[:10]
        checked_queries += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"retrieval oracle took {elapsed:.1f}s"
    report(f"criterion 2 PASS: {checked_queries} queries agree exactly, {elapsed:.1f}s")


def test_criterion_3_analytic_loss_values():
    """Closed-form loss values at their stated tolerances."""
    unit = from_array(np.ones(4) / 2.0)
    for n_neg in (1, 7, 31):
        value = loss_align(unit, unit, [unit] * n_neg, tau=0.07).item()
        assert value == pytest.approx(math.log(n_neg + 1), abs=1e-9), n_neg

    for n_classes in (2, 4, 10):
        value = loss_cls(zeros([n_classes]), 0).item()
        assert value == pytest.approx(math.log(n_classes), abs=1e-12), n_classes

    logits = uniform([6], -2.0, 2.0, 99)
    cls_value = loss_cls(logits, 4).item()
    gen_value = loss_gen(reshape(logits, (1, 6)), [4]).item()
    assert cls_value == gen_value  # bit-for-bit
    report("criterion 3 PASS: ln(N+1), ln(C), and T=1 generation identity hold")


def test_criterion_4_ablation_direction():
    """Structural replication of the component ladder on the default world:
    non-decreasing means (at most one adjacent inversion of at most one
    accuracy point), full at least 15 points over baseline, baseline at most
    chance + 15 points, all inside 10 minutes."""
    started = time.perf_counter()
    cfg, world, data = default_world_and_data()
    assert cfg.world.n_entities == 20 and cfg.world.n_attributes == 4
    assert cfg.world.n_examples == 2000
    train, test = split_dataset(data)
    rows = run_ablation(build_graph(world.triples), train, test, cfg,
                        seeds=list(DEFAULT_ABLATION_SEEDS))
    elapsed = time.perf_counter() - started

    means = [row.mean for row in rows]
    names = [row.name for row in rows]
    assert names == [name for name, _, _ in ABLATION_CONFIGS]

    deltas = [means[i + 1] - means[i] for i in range(4)]
    inversions = [d for d in deltas if d < 0]
    assert len(inversions) <= 1, f"means {means} have {len(inversions)} inversions"
    assert all(d >= -0.01 for d in inversions), f"inversion too large: {deltas}"

    chance = 1.0 / cfg.world.n_attributes
    assert means[-1] - means[0] >= 0.15, f"full-baseline = {means[-1] - means[0]:.3f}"
    assert means[0] <= chance + 0.15, f"baseline {means[0]:.3f} above chance band"
    assert elapsed < 600.0, f"ablation took {elapsed:.0f}s"
    ladder = ", ".join(f"{n}={m:.3f}" for n, m in zip(names, means))
    report(f"criterion 4 PASS: {ladder} ({elapsed:.0f}s)")


def test_criterion_5_freeze_and_stage_contracts():
    """Default fine-tuning leaves the backbone and knowledge groups
    bit-identical over 200 optimizer steps; pretraining never touches the
    task adaptor."""
    cfg, world, data = default_world_and_data()
    small = data[:320]  # 20 batches of 16 per epoch at batch_size 16

    from dataclasses import replace
    cfg = replace(cfg, batch_size=16, pretrain_epochs=2, finetune_epochs=10)
    state = fresh_state(cfg, world)

    adaptor_before = {n: t.data.tobytes() for n, t in state.model.theta_a.items()}
    for _ in range(2):
        pretrain_epoch(state, small)
    adaptor_after = {n: t.data.tobytes() for n, t in state.model.theta_a.items()}
    assert adaptor_before == adaptor_after

    start_stage(state, STAGE_FINETUNE)
    frozen_groups = ("theta_v", "theta_t", "theta_m", "theta_k")
    frozen_before = {g: {n: t.data.tobytes() for n, t in state.model.groups()[g].items()}
                     for g in frozen_groups}
    steps_before = state.opt.t
    for _ in range(10):
        finetune_epoch(state, small)
    assert state.opt.t - steps_before >= 200
    for g in frozen_groups:
        now = {n: t.data.tobytes() for n, t in state.model.groups()[g].items()}
        assert now == frozen_before[g], f"{g} drifted while frozen"
    report(f"criterion 5 PASS: {state.opt.t - steps_before} fine-tune steps, "
           f"frozen groups bit-identical; pretraining left the adaptor untouched")


def test_criterion_6_determinism_and_resume(tmp_path):
    """Identical seeds give bit-identical checkpoints; interrupting after
    epoch k and resuming reproduces the uninterrupted run bit for bit."""
    cfg, world, data = default_world_and_data()
    from dataclasses import replace
    cfg = replace(cfg, pretrain_epochs=4, finetune_epochs=2)
    small = data[:480]

    checkpoints = []
    for run in range(2):
        state = fresh_state(cfg, world)
        for _ in range(4):
            pretrain_epoch(state, small)
        path = tmp_path / f"run{run}.akgp"
        save_state(path, state)
        checkpoints.append(path.read_bytes())
    assert checkpoints[0] == checkpoints[1]

    straight = fresh_state(cfg, world)
    for _ in range(4):
        pretrain_epoch(straight, small)
    start_stage(straight, STAGE_FINETUNE)
    for _ in range(2):
        finetune_epoch(straight, small)
    straight_path = tmp_path / "straight.akgp"
    save_state(straight_path, straight)

    partial = fresh_state(cfg, world)
    for _ in range(4):
        pretrain_epoch(partial, small)
    start_stage(partial, STAGE_FINETUNE)
    finetune_epoch(partial, small)
    mid_path = tmp_path / "mid.akgp"
    save_state(mid_path, partial)

    graph = build_graph(world.triples)
    resumed = load_state(mid_path, cfg, graph)
    finetune_epoch(resumed, small)
    resumed_path = tmp_path / "resumed.akgp"
    save_state(resumed_path, resumed)
    assert straight_path.read_bytes() == resumed_path.read_bytes()
    report("criterion 6 PASS: twin runs and interrupt+resume are bit-identical")


def test_criterion_7_overhead_bound():
    """Full-pipeline fine-tune steps cost at most 2x baseline steps at the
    default dimensions, measured over 100 steps."""
    cfg, world, _ = default_world_and_data()
    data = gen_dataset(world, 100 * cfg.batch_size, seed=777)

    def per_step_seconds(variant):
        best = float("inf")
        for _ in range(3):
            state = fresh_state(cfg, world)
            start_stage(state, STAGE_FINETUNE)
            finetune_epoch(state, data[: 5 * cfg.batch_size], variant)  # warmup
            begin = time.perf_counter()
            finetune_epoch(state, data, variant)
            best = min(best, (time.perf_counter() - begin) / 100.0)
        return best

    baseline = per_step_seconds(PipelineVariant(knowledge="none", gate=False))
    full = per_step_seconds(PipelineVariant(knowledge="retrieve", gate=True))
    ratio = full / baseline
    assert ratio <= 2.0, f"overhead ratio {ratio:.2f} exceeds 2.0"
    report(f"criterion 7 PASS: {baseline * 1e3:.2f} ms/step baseline, "
           f"{full * 1e3:.2f} ms/step full, ratio {ratio:.2f}")


def test_criterion_8_checkpoint_format(tmp_path):
    """Byte-identical round trip; corrupted magic and truncation rejected
    with their dedicated errors (CLI exit code 2)."""
    cfg, world, data = default_world_and_data()
    from dataclasses import replace
    cfg = replace(cfg, pretrain_epochs=1)
    state = fresh_state(cfg, world)
    pretrain_epoch(state, data[:160])
    first = tmp_path / "first.akgp"
    save_state(first, state)

    graph = build_graph(world.triples)
    reloaded = load_state(first, cfg, graph)
    second = tmp_path / "second.akgp"
    save_state(second, reloaded)
    assert first.read_bytes() == second.read_bytes()

    raw = first.read_bytes()
    bad_magic = tmp_path / "bad.akgp"
    bad_magic.write_bytes(b"XXXXX" + raw[5:])
    with pytest.raises(BadMagicError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "cut.akgp"
    truncated.write_bytes(raw[: len(raw) - 11])
    with pytest.raises(TruncatedCheckpointError):
        load_checkpoint(truncated)

    from akgp.cli import main
    code = main(["eval", "--config", str(_write_default_config(tmp_path)),
                 "--kg", str(_write_kg(tmp_path, world)),
                 "--data", str(_write_data(tmp_path, data[:5])),
                 "--checkpoint", str(bad_magic)])
    assert code == 2
    report("criterion 8 PASS: round-trip byte-identical; corrupt and truncated "
           "files rejected (CLI exit 2)")


def _write_default_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    return path


def _write_kg(tmp_path, world):
    from akgp.kg import save_triples
    path = tmp_path / "kg.tsv"
    save_triples(path, world.triples)
    return path


def _write_data(tmp_path, examples):
    from akgp.data import write_examples
    path = tmp_path / "data.jsonl"
    write_examples(path, examples)
    return path
