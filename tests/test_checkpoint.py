"""Checkpoint format: byte-exact round trips, corruption handling, and
interrupt/resume equivalence of training runs."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from akgp.checkpoint import (
    BadMagicError,
    CheckpointError,
    DimOverflowError,
    TruncatedCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from akgp.config import TrainConfig, WorldConfig
from akgp.kg import build_graph
from akgp.rng import derive_seed
from akgp.synthbench import gen_dataset, gen_world
from akgp.trainer import (
    STAGE_FINETUNE,
    finetune_epoch,
    load_state,
    make_run,
    pretrain_epoch,
    save_state,
    start_stage,
)


def tiny_setup(seed=0):
    cfg = TrainConfig(
        d_i=5, d_t=5, d_m=6, d_k=4, d_h=5, d_a=6,
        vocab_size=18, n_classes=2, batch_size=16, seed=seed, n_negatives=3,
        world=WorldConfig(n_entities=4, n_attributes=2, n_examples=48,
                          sigma_noise=0.5, seed=11),
    )
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    data = gen_dataset(world, 48, seed=3)
    graph = build_graph(world.triples, cfg.d_k, derive_seed(cfg.seed, "graph"))
    return cfg, world, data, graph


def fresh_graph(cfg, world):
    return build_graph(world.triples, cfg.d_k, derive_seed(cfg.seed, "graph"))


def test_raw_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "ck.akgp"
    tensors = {"a.w": np.arange(6.0).reshape(2, 3), "b.v": np.array([1.5])}
    buffers = {"m.a.w": np.zeros((2, 3))}
    save_checkpoint(path, '{"x":1}', tensors, buffers,
                    stage=1, epochs_done=4, adam_t=77, rng_state=(1, 2, 3, 4))
    data = load_checkpoint(path)
    assert data.config == {"x": 1}
    assert np.array_equal(data.tensors["a.w"], tensors["a.w"])
    assert np.array_equal(data.opt_buffers["m.a.w"], buffers["m.a.w"])
    assert (data.stage, data.epochs_done, data.adam_t) == (1, 4, 77)
    assert data.rng_state == (1, 2, 3, 4)


def test_failed_write_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "ck.akgp"
    save_checkpoint(path, '{"x":1}', {"a.w": np.arange(6.0).reshape(2, 3)}, {},
                    stage=0, epochs_done=1, adam_t=3, rng_state=(1, 2, 3, 4))
    before = path.read_bytes()
    # the second record fails after its name and dims are written
    with pytest.raises(ValueError):
        save_checkpoint(path, '{"x":2}', {"a.w": np.ones((2, 3)), "b.v": np.array(["x"])},
                        {}, stage=0, epochs_done=2, adam_t=6, rng_state=(5, 6, 7, 8))
    assert path.read_bytes() == before
    assert load_checkpoint(path).epochs_done == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.akgp"]


def test_save_load_save_is_byte_identical(tmp_path):
    cfg, world, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    pretrain_epoch(state, data)
    first = tmp_path / "first.akgp"
    save_state(first, state)

    restored = load_state(first, cfg, fresh_graph(cfg, world))
    second = tmp_path / "second.akgp"
    save_state(second, restored)
    assert first.read_bytes() == second.read_bytes()


def test_identical_seed_runs_give_identical_checkpoints(tmp_path):
    cfg, world, data, graph = tiny_setup(seed=9)
    paths = []
    for run in range(2):
        state = make_run(cfg, fresh_graph(cfg, world))
        for _ in range(2):
            pretrain_epoch(state, data)
        start_stage(state, STAGE_FINETUNE)
        finetune_epoch(state, data)
        path = tmp_path / f"run{run}.akgp"
        save_state(path, state)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_interrupt_and_resume_equals_uninterrupted(tmp_path):
    cfg, world, data, graph = tiny_setup(seed=4)

    # uninterrupted: 5 pretrain epochs
    straight = make_run(cfg, fresh_graph(cfg, world))
    for _ in range(5):
        pretrain_epoch(straight, data)
    straight_path = tmp_path / "straight.akgp"
    save_state(straight_path, straight)

    # interrupted after 2 epochs, resumed for 3 more
    partial = make_run(cfg, fresh_graph(cfg, world))
    for _ in range(2):
        pretrain_epoch(partial, data)
    mid_path = tmp_path / "mid.akgp"
    save_state(mid_path, partial)

    resumed = load_state(mid_path, cfg, fresh_graph(cfg, world))
    assert resumed.epochs_done == 2
    for _ in range(3):
        pretrain_epoch(resumed, data)
    resumed_path = tmp_path / "resumed.akgp"
    save_state(resumed_path, resumed)
    assert straight_path.read_bytes() == resumed_path.read_bytes()


def test_resume_across_stages(tmp_path):
    cfg, world, data, graph = tiny_setup(seed=6)

    straight = make_run(cfg, fresh_graph(cfg, world))
    pretrain_epoch(straight, data)
    start_stage(straight, STAGE_FINETUNE)
    for _ in range(4):
        finetune_epoch(straight, data)
    straight_path = tmp_path / "straight.akgp"
    save_state(straight_path, straight)

    partial = make_run(cfg, fresh_graph(cfg, world))
    pretrain_epoch(partial, data)
    start_stage(partial, STAGE_FINETUNE)
    finetune_epoch(partial, data)
    mid = tmp_path / "mid.akgp"
    save_state(mid, partial)

    resumed = load_state(mid, cfg, fresh_graph(cfg, world))
    assert resumed.stage == STAGE_FINETUNE
    assert resumed.epochs_done == 1
    for _ in range(3):
        finetune_epoch(resumed, data)
    resumed_path = tmp_path / "resumed.akgp"
    save_state(resumed_path, resumed)
    assert straight_path.read_bytes() == resumed_path.read_bytes()


def test_bad_magic_rejected_without_partial_load(tmp_path):
    cfg, world, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    path = tmp_path / "ck.akgp"
    save_state(path, state)
    corrupted = bytearray(path.read_bytes())
    corrupted[0:5] = b"NOPE!"
    bad = tmp_path / "bad.akgp"
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(BadMagicError, match="bad magic"):
        load_checkpoint(bad)


def test_truncated_file_rejected(tmp_path):
    cfg, world, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    path = tmp_path / "ck.akgp"
    save_state(path, state)
    raw = path.read_bytes()
    for cut in (3, 8, len(raw) // 2, len(raw) - 5):
        clipped = tmp_path / f"cut{cut}.akgp"
        clipped.write_bytes(raw[:cut])
        with pytest.raises((TruncatedCheckpointError, BadMagicError)):
            load_checkpoint(clipped)


def test_dim_overflow_rejected(tmp_path):
    import struct

    path = tmp_path / "overflow.akgp"
    with open(path, "wb") as fh:
        fh.write(b"AKGP1")
        fh.write(struct.pack("<I", 2))
        fh.write(b"{}")
        fh.write(struct.pack("<I", 1))       # one tensor
        fh.write(struct.pack("<I", 1))       # name length
        fh.write(b"w")
        fh.write(struct.pack("<I", 2))       # rank 2
        fh.write(struct.pack("<QQ", 1 << 40, 1 << 40))
    with pytest.raises(DimOverflowError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    cfg, world, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    path = tmp_path / "ck.akgp"
    save_state(path, state)
    padded = tmp_path / "padded.akgp"
    padded.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(Exception):
        load_checkpoint(padded)


def test_restore_rejects_mismatched_model(tmp_path):
    cfg, world, data, graph = tiny_setup()
    state = make_run(cfg, graph)
    path = tmp_path / "ck.akgp"
    save_state(path, state)

    other_cfg = TrainConfig(
        d_i=5, d_t=5, d_m=7, d_k=4, d_h=5, d_a=6,  # d_m differs
        vocab_size=18, n_classes=2, batch_size=16, seed=0,
        world=cfg.world,
    )
    with pytest.raises(ValueError):
        load_state(path, other_cfg, build_graph(world.triples, 4, 0))


def _reference_checkpoint() -> bytes:
    import tempfile

    cfg = TrainConfig()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/ck.akgp"
        save_checkpoint(path, cfg.snapshot_json(),
                        {"theta_a.w_out": np.arange(6.0).reshape(2, 3),
                         "theta_a.b_out": np.array([0.5, -1.0])},
                        {"m.theta_a.b_out": np.array([1e-3, 2e-3])},
                        stage=1, epochs_done=3, adam_t=40, rng_state=(1, 2, 3, 4))
        with open(path, "rb") as fh:
            return fh.read()


REFERENCE = _reference_checkpoint()
# magic, config length and snapshot, tensor count, then the first name length
FIRST_NAME_AT = 5 + 4 + len(TrainConfig().snapshot_json()) + 4 + 4


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, len(REFERENCE) - 1), st.integers(1, 255)),
                      max_size=3),
       keep=st.integers(0, len(REFERENCE)))
@example(flips=[(FIRST_NAME_AT, 0x80)], keep=len(REFERENCE))  # non-UTF-8 record name
@example(flips=[(9, 0x80)], keep=len(REFERENCE))  # non-UTF-8 config snapshot
@example(flips=[(9, ord("{") ^ ord("["))], keep=len(REFERENCE))  # snapshot not an object
def test_corrupted_checkpoint_fails_only_with_checkpoint_error(fuzz_dir, flips, keep):
    raw = bytearray(REFERENCE)
    for position, mask in flips:
        raw[position] ^= mask
    path = fuzz_dir / "fuzzed.akgp"
    path.write_bytes(bytes(raw[:keep]))
    try:
        data = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(data.config, dict)
