"""World generation, dataset construction, and ablation harness mechanics."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from akgp import kg, synthbench, trainer
from akgp.config import TrainConfig, WorldConfig
from akgp.data import Example
from akgp.kg import TripleParseError, build_graph
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
    NumericError,
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
    state = make_run(cell_cfg, build_graph(triples))
    train_batch = collate_dataset(state, train)
    if pretrain:
        for _ in range(cell_cfg.pretrain_epochs):
            pretrain_epoch(state, train_batch)
    start_stage(state, STAGE_FINETUNE)
    for _ in range(cell_cfg.finetune_epochs):
        finetune_epoch(state, train_batch, variant)
    return evaluate(state, test, variant)


def usable_cores(monkeypatch, n):
    """Make the ablation see ``n`` usable cores, so it deals its units into
    ``n`` shares: the caller's and ``n - 1`` forked children's."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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
    graph = build_graph(world.triples)
    rows = run_ablation(graph, train, test, cfg, seeds=[0, 1, 2])
    assert [r.name for r in rows] == ["baseline", "+encoder", "+retrieval",
                                      "+alignment", "full"]
    assert all(len(r.accuracies) == 3 for r in rows)
    assert all(0.0 <= r.mean <= 1.0 for r in rows)
    assert rows[0].delta_vs_baseline == 0.0

    again = run_ablation(graph, train, test, cfg, seeds=[0, 1, 2])
    assert [r.accuracies for r in again] == [r.accuracies for r in rows]


@pytest.mark.parametrize("freeze", [None, ["theta_k"], []],  # None: the default
                         ids=["default", "theta_k", "nothing"])
def test_shared_cells_equal_from_scratch_oracle(freeze, monkeypatch):
    # on one core the caller runs every unit, so every evaluate call is seen:
    # each seed's pretraining chain, then each seed's cells from the initial weights
    usable_cores(monkeypatch, 1)
    cfg = tiny_cfg() if freeze is None else replace(tiny_cfg(), freeze=freeze)
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    train, test = split_dataset(gen_dataset(world, 60, seed=23))
    seeds = [0, 1, 2]
    got = []

    def recorded(*args):
        got.append(evaluate(*args))
        return got[-1]

    monkeypatch.setattr(synthbench, "evaluate", recorded)
    run_ablation(build_graph(world.triples), train, test, cfg, seeds)
    want = [run_cell_from_scratch(world.triples, train, test, cfg, variant, pretrain, seed)
            for chain in (True, False) for seed in seeds
            for _, variant, pretrain in ABLATION_CONFIGS if pretrain == chain]
    assert got == want


def test_ablation_work_counts(monkeypatch):
    # work-count guard: the seeds share the caller's graph and one collation
    # of each split, a seed's pretrained cells share one pretraining, and the
    # cells of a unit share its fine-tuning stage and its encoded training rows
    usable_cores(monkeypatch, 1)  # calls made in a child are not seen
    cfg = tiny_cfg()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    graph = build_graph(world.triples)
    train, test = split_dataset(gen_dataset(world, 60, seed=24))
    calls = {"build_graph": 0, "pretrain_epoch": 0, "run_cell": 0, "collate": 0,
             "start_stage": 0, "encode_rows": 0}
    assert not hasattr(synthbench, "build_graph")
    for module, name in [(kg, "build_graph"), (synthbench, "pretrain_epoch"),
                         (synthbench, "run_cell"), (synthbench, "collate"),
                         (trainer, "collate"), (synthbench, "start_stage"),
                         (trainer, "encode_rows")]:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    run_ablation(graph, train, test, cfg, seeds=[0, 1, 2])
    assert calls == {"build_graph": 0, "pretrain_epoch": 3 * cfg.pretrain_epochs,
                     "run_cell": 3 * len(ABLATION_CONFIGS), "collate": 2,
                     "start_stage": 6, "encode_rows": 6}


def _tiny_splits(seed):
    cfg = tiny_cfg()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    return (build_graph(world.triples), *split_dataset(gen_dataset(world, 60, seed=seed)))


def test_rows_do_not_depend_on_the_core_count(monkeypatch):
    graph, train, test = _tiny_splits(25)
    rows = []
    for cores in (1, 2, 3):
        usable_cores(monkeypatch, cores)
        rows.append(run_ablation(graph, train, test, tiny_cfg(), seeds=[0, 1, 2]))
        assert multiprocessing.active_children() == []
    assert rows[1] == rows[0] and rows[2] == rows[0]


@pytest.mark.parametrize("failing, first", [
    # seed 1's chain fails in a child and its +encoder cell in the caller
    ({(1, "full"), (1, "+encoder")}, (1, "+encoder")),
    # the child's first failure skips its later unit of seed 2
    ({(2, "baseline"), (1, "full"), (0, "+encoder")}, (0, "+encoder")),
    ({(2, "baseline"), (1, "full")}, (1, "full")),
    # a chain's first cell comes after its seed's cells from the initial weights
    ({(0, "+alignment"), (0, "baseline")}, (0, "baseline")),
    # but its pretraining comes before them
    ({(1, "pretraining"), (1, "baseline")}, (1, "pretraining")),
    # a chain enters its fine-tuning stage at its first cell
    ({(0, "chain's stage"), (0, "+encoder")}, (0, "+encoder")),
])
def test_a_failed_cell_raises_the_first_failure_in_the_serial_order(monkeypatch, failing,
                                                                    first):
    graph, train, test = _tiny_splits(26)
    # +retrieval and +alignment share a variant, so a case naming +alignment
    # fails +retrieval too
    names = {variant: name for name, variant, _ in ABLATION_CONFIGS}

    def failing_at(name_of, real):
        def stand_in(state, *args):
            cell = (state.cfg.seed, name_of(state, *args))
            if cell in failing:
                raise ValueError(f"cell {cell} failed")
            return real(state, *args)
        return stand_in

    monkeypatch.setattr(synthbench, "run_cell", failing_at(
        lambda stage, train, test, variant: names[variant], synthbench.run_cell))
    monkeypatch.setattr(synthbench, "pretrain_epoch", failing_at(
        lambda *_: "pretraining", synthbench.pretrain_epoch))
    # a chain enters fine-tuning with its pretraining epochs done
    monkeypatch.setattr(synthbench, "start_stage", failing_at(
        lambda state, stage: "chain's stage" if state.epochs_done else None,
        synthbench.start_stage))
    for cores in (1, 2, 3):
        usable_cores(monkeypatch, cores)
        with pytest.raises(ValueError) as raised:
            run_ablation(graph, train, test, tiny_cfg(), seeds=[0, 1, 2])
        assert str(raised.value) == f"cell {first} failed"
        assert multiprocessing.active_children() == []


def test_units_of_a_later_seed_than_a_failure_are_skipped(monkeypatch):
    # on one core the chains run first, so seed 0's +encoder fails after
    # every chain and before the cells of seeds 1 and 2 from the initial weights
    usable_cores(monkeypatch, 1)
    graph, train, test = _tiny_splits(27)
    names = {variant: name for name, variant, _ in ABLATION_CONFIGS}
    real_run_cell, ran = synthbench.run_cell, []

    def failing_cell(stage, train_batch, test_batch, variant):
        ran.append((stage.cfg.seed, names[variant]))
        if ran[-1] == (0, "+encoder"):
            raise ValueError("cell (0, '+encoder') failed")
        return real_run_cell(stage, train_batch, test_batch, variant)

    monkeypatch.setattr(synthbench, "run_cell", failing_cell)
    with pytest.raises(ValueError, match=r"\(0, '\+encoder'\)"):
        run_ablation(graph, train, test, tiny_cfg(), seeds=[0, 1, 2])
    assert ran == [(seed, name) for seed in (0, 1, 2) for name in ("+alignment", "full")] \
        + [(0, "baseline"), (0, "+encoder")]


def test_units_run_in_forked_children_unless_another_thread_runs(monkeypatch, tmp_path):
    graph, train, test = _tiny_splits(28)
    real_run_cell = synthbench.run_cell

    def logged_cell(*args):
        with open(tmp_path / "pids", "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_run_cell(*args)

    def pids_of_cells():
        path = tmp_path / "pids"
        pids = path.read_text().split()
        path.unlink()
        return set(map(int, pids)), len(pids)

    monkeypatch.setattr(synthbench, "run_cell", logged_cell)
    usable_cores(monkeypatch, 3)
    rows = run_ablation(graph, train, test, tiny_cfg(), seeds=[0, 1, 2])
    pids, cells = pids_of_cells()
    assert cells == 15 and len(pids) == 3 and os.getpid() in pids

    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert run_ablation(graph, train, test, tiny_cfg(), seeds=[0, 1, 2]) == rows
    finally:
        release.set()
        waiting.join(timeout=60)
    assert pids_of_cells() == ({os.getpid()}, 15)


def test_no_child_outlives_a_dead_child_or_an_interrupted_caller(monkeypatch):
    graph, train, test = _tiny_splits(29)
    caller, real_run_cell = os.getpid(), synthbench.run_cell

    def child_dies(*args):
        if os.getpid() != caller:
            os._exit(7)
        return real_run_cell(*args)

    def caller_interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return real_run_cell(*args)

    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(synthbench, "run_cell", child_dies)
    with pytest.raises(RuntimeError, match="exited with code 7 before sending its results"):
        run_ablation(graph, train, test, tiny_cfg(), seeds=[0, 1, 2])
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(synthbench, "run_cell", caller_interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_ablation(graph, train, test, tiny_cfg(), seeds=[0, 1, 2])
    assert multiprocessing.active_children() == []


# a caller of a 2-core ablation on the tiny world whose cells take 0.5 s
# each; its child prints its pid as each of its 8 cells starts
SLOW_ABLATION_CALLER = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from akgp import synthbench
from test_synthbench import _tiny_splits, tiny_cfg

caller, real_run_cell = os.getpid(), synthbench.run_cell

def slow_cell(*args):
    if os.getpid() != caller:
        print(os.getpid(), flush=True)
    time.sleep(0.5)
    return real_run_cell(*args)

synthbench.run_cell = slow_cell
os.sched_getaffinity = lambda pid: {0, 1}
synthbench.run_ablation(*_tiny_splits(30), tiny_cfg(), seeds=[0, 1, 2])
"""


def _running(pid: int) -> bool:
    """Whether process ``pid`` has not exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
@pytest.mark.parametrize("signal_number", [signal.SIGKILL, signal.SIGTERM],
                         ids=["SIGKILL", "SIGTERM"])
def test_a_forked_share_stops_when_its_caller_is_killed(signal_number):
    # neither signal lets the caller stop its child, so the child must notice
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(tests), "src"),
                    os.environ.get("PYTHONPATH")) if p))
    caller = subprocess.Popen([sys.executable, "-c", SLOW_ABLATION_CALLER, tests],
                              env=env, stdout=subprocess.PIPE, text=True)
    child = None
    try:
        line = caller.stdout.readline()
        assert line, "the caller printed no child pid"
        child = int(line)
        caller.send_signal(signal_number)
        caller.wait(timeout=60)
        deadline = time.monotonic() + 2.0  # the child has about 4 s of cells left
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(child)
    finally:
        caller.kill()
        caller.wait(timeout=60)
        caller.stdout.close()
        if child is not None and _running(child):
            os.kill(child, signal.SIGKILL)


def test_run_ablation_validation():
    cfg = tiny_cfg()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, 40, seed=20)
    train, test = split_dataset(data)
    with pytest.raises(ValueError, match="seeds"):
        run_ablation(build_graph(world.triples), train, test, cfg, seeds=[0, 1])
    with pytest.raises(ValueError, match="overlap"):
        run_ablation(build_graph(world.triples), train, train[:5], cfg, seeds=[0, 1, 2])


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


@pytest.mark.parametrize("error", [
    NumericError(2, "alignment loss became non-finite"),
    TripleParseError(3, "empty field"),
    TripleParseError(3, "empty field", "kg.tsv"),
    TripleParseError(None, "not UTF-8 text", "kg.tsv"),
], ids=repr)
def test_errors_pickle_to_the_same_error(error):
    # a forked ablation worker sends its unit's exception to the caller
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)
