"""Command-line contract: artifacts, manifests, determinism, exit codes."""

import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import akgp.cli
from akgp.checkpoint import load_checkpoint, save_checkpoint
from akgp.cli import main
from akgp.config import TrainConfig, WorldConfig

TINY = {
    "world": {"n_entities": 5, "n_attributes": 2, "n_examples": 60, "seed": 4},
    "vocab_size": 19, "n_classes": 2, "d_i": 6, "d_m": 10, "d_t": 6,
    "d_k": 6, "d_h": 8, "d_a": 8, "n_negatives": 3,
    "pretrain_epochs": 2, "finetune_epochs": 2, "batch_size": 16,
}


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "world"
    code = main(["gen-data", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return {
        "root": tmp_path,
        "config": str(cfg),
        "kg": str(out / "kg.tsv"),
        "data": str(out / "dataset.jsonl"),
        "world_dir": out,
    }


def manifest_without_clock(path):
    record = json.loads((path / "manifest.json").read_text())
    record.pop("wall_clock_seconds")
    return record


def test_gen_data_writes_artifacts_and_stats(workdir, capsys):
    assert os.path.exists(workdir["kg"])
    assert os.path.exists(workdir["data"])
    manifest = json.loads((workdir["world_dir"] / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["outputs"] == ["dataset.jsonl", "kg.tsv"]
    assert manifest["config"]["world"]["n_entities"] == 5


def test_gen_data_deterministic(workdir, tmp_path, capsys):
    out2 = tmp_path / "world2"
    assert main(["gen-data", "--config", workdir["config"], "--out", str(out2)]) == 0
    stats_line = capsys.readouterr().out.strip().splitlines()[-1]
    stats = json.loads(stats_line)
    assert stats["n_nodes"] == 7  # 5 entities + 2 attributes
    assert (out2 / "kg.tsv").read_bytes() == open(workdir["kg"], "rb").read()
    assert (out2 / "dataset.jsonl").read_bytes() == open(workdir["data"], "rb").read()
    assert manifest_without_clock(out2) == manifest_without_clock(workdir["world_dir"])


def test_gen_data_default_world_stats(tmp_path, capsys):
    # the line printed before the adjacency became sparse
    cfg = tmp_path / "default.json"
    cfg.write_text("{}")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == (
        '{"degree_histogram": {"3": 1, "4": 12, "5": 8, "6": 2, "7": 1}, '
        '"n_edges": 55, "n_nodes": 24}')


def test_train_eval_round_trip(workdir, tmp_path, capsys):
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(pre)]) == 0
    assert (pre / "checkpoint.akgp").exists()
    log_lines = (pre / "run_log.jsonl").read_text().strip().splitlines()
    assert len(log_lines) == 2
    assert "mean_align_loss" in json.loads(log_lines[0])

    fine = tmp_path / "fine"
    assert main(["finetune", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(fine),
                 "--checkpoint", str(pre / "checkpoint.akgp")]) == 0

    assert main(["eval", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"],
                 "--checkpoint", str(fine / "checkpoint.akgp")]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(metrics) == {"accuracy", "mean_loss", "retrieval_hit_rate"}


@pytest.mark.parametrize("command", ["eval", "retrieve"])
def test_eval_and_retrieve_take_no_resume(workdir, capsys, command):
    # only training resumes; a fine-tuning checkpoint is read with --checkpoint
    assert main([command, "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--resume"]) == 1
    assert "unrecognized arguments: --resume" in capsys.readouterr().err


def test_identical_runs_bit_identical(workdir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pretrain", "--config", workdir["config"], "--kg", workdir["kg"],
                     "--data", workdir["data"], "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.akgp").read_bytes() == (b / "checkpoint.akgp").read_bytes()
    assert (a / "run_log.jsonl").read_bytes() == (b / "run_log.jsonl").read_bytes()
    assert manifest_without_clock(a) == manifest_without_clock(b)


def test_resume_equals_straight_run(workdir, tmp_path):
    short_cfg = dict(TINY, pretrain_epochs=2)
    long_cfg = dict(TINY, pretrain_epochs=5)
    short_path = tmp_path / "short.json"
    long_path = tmp_path / "long.json"
    short_path.write_text(json.dumps(short_cfg))
    long_path.write_text(json.dumps(long_cfg))

    straight = tmp_path / "straight"
    assert main(["pretrain", "--config", str(long_path), "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(straight)]) == 0

    resumed = tmp_path / "resumed"
    assert main(["pretrain", "--config", str(short_path), "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(resumed)]) == 0
    assert main(["pretrain", "--config", str(long_path), "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(resumed), "--resume"]) == 0

    assert (straight / "checkpoint.akgp").read_bytes() == \
        (resumed / "checkpoint.akgp").read_bytes()


def test_interrupt_between_log_and_save_resumes_one_line_per_epoch(
        workdir, tmp_path, monkeypatch):
    config = tmp_path / "four.json"
    config.write_text(json.dumps(dict(TINY, pretrain_epochs=4)))
    inputs = ["--config", str(config), "--kg", workdir["kg"], "--data", workdir["data"]]
    straight = tmp_path / "straight"
    assert main(["pretrain", *inputs, "--out", str(straight)]) == 0

    save_state = akgp.cli.save_state

    def killed_before_third_save(path, state):
        if state.epochs_done == 3:
            raise KeyboardInterrupt
        save_state(path, state)

    resumed = tmp_path / "resumed"
    monkeypatch.setattr(akgp.cli, "save_state", killed_before_third_save)
    with pytest.raises(KeyboardInterrupt):
        main(["pretrain", *inputs, "--out", str(resumed)])
    monkeypatch.setattr(akgp.cli, "save_state", save_state)
    assert load_checkpoint(resumed / "checkpoint.akgp").epochs_done == 2
    assert main(["pretrain", *inputs, "--out", str(resumed), "--resume"]) == 0

    log = (resumed / "run_log.jsonl").read_text().splitlines()
    assert [json.loads(line)["epoch"] for line in log] == [1, 2, 3, 4]
    assert (resumed / "run_log.jsonl").read_bytes() == \
        (straight / "run_log.jsonl").read_bytes()
    assert (resumed / "checkpoint.akgp").read_bytes() == \
        (straight / "checkpoint.akgp").read_bytes()


@pytest.mark.parametrize("epoch", ['"1"', "null"])
def test_resume_keeps_run_log_lines_whose_epoch_is_no_number(workdir, tmp_path, epoch):
    out = tmp_path / "run"
    inputs = ["--kg", workdir["kg"], "--data", workdir["data"], "--out", str(out)]
    assert main(["pretrain", "--config", workdir["config"], *inputs]) == 0
    odd = f'{{"command": "pretrain", "epoch": {epoch}}}'
    with open(out / "run_log.jsonl", "a", encoding="utf-8") as fh:
        fh.write(odd + "\n")
    longer = tmp_path / "three.json"
    longer.write_text(json.dumps(dict(TINY, pretrain_epochs=3)))
    assert main(["pretrain", "--config", str(longer), *inputs, "--resume"]) == 0
    log = (out / "run_log.jsonl").read_text().splitlines()
    assert log[2] == odd
    assert [json.loads(line)["epoch"] for line in log] == [1, 2, json.loads(odd)["epoch"], 3]


def _rename(buffers, old, new):
    buffers[new] = buffers.pop(old)


@pytest.mark.parametrize("edit, name", [
    (lambda b: _rename(b, "v.theta_v.weight", "x.theta_v.weight"), "x.theta_v.weight"),
    (lambda b: b.update({"m.theta_v.weight": np.zeros(3)}), "m.theta_v.weight"),
    (lambda b: b.update({"m.theta_v.weight": b["m.theta_v.weight"].T}), "m.theta_v.weight"),
    (lambda b: b.pop("v.theta_v.bias"), "v.theta_v.bias"),
], ids=["renamed", "short", "transposed", "dropped"])
def test_resume_from_bad_optimizer_buffer_is_data_error(workdir, tmp_path, capsys,
                                                        edit, name):
    out = tmp_path / "run"
    inputs = ["--kg", workdir["kg"], "--data", workdir["data"], "--out", str(out)]
    assert main(["pretrain", "--config", workdir["config"], *inputs]) == 0
    path = out / "checkpoint.akgp"
    data = load_checkpoint(path)
    edit(data.opt_buffers)
    save_checkpoint(path, json.dumps(data.config), data.tensors, data.opt_buffers,
                    data.stage, data.epochs_done, data.adam_t, data.rng_state)
    before = path.read_bytes()
    longer = tmp_path / "three.json"
    longer.write_text(json.dumps(dict(TINY, pretrain_epochs=3)))
    capsys.readouterr()
    assert main(["pretrain", "--config", str(longer), *inputs, "--resume"]) == 2
    message = json.loads(capsys.readouterr().err.strip())["message"]
    assert str(path) in message and name in message, message
    assert path.read_bytes() == before


def test_checkpoint_tensor_of_wrong_shape_is_data_error(workdir, tmp_path, capsys):
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(pre)]) == 0
    data = load_checkpoint(pre / "checkpoint.akgp")
    data.tensors["theta_a.w_out"] = data.tensors["theta_a.w_out"].T
    bad = tmp_path / "bad.akgp"
    save_checkpoint(bad, json.dumps(data.config), data.tensors, data.opt_buffers,
                    data.stage, data.epochs_done, data.adam_t, data.rng_state)
    capsys.readouterr()
    assert main(["finetune", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--checkpoint", str(bad),
                 "--out", str(tmp_path / "fine")]) == 2
    assert "theta_a.w_out" in json.loads(capsys.readouterr().err.strip())["message"]


@pytest.mark.parametrize("change, key", [
    ({"lr": 0.01}, "lr"),
    ({"tau": 0.5}, "tau"),
    ({"seed": 5}, "seed"),
])
def test_resume_with_changed_config_is_data_error(workdir, tmp_path, capsys, change, key):
    out = tmp_path / "run"
    assert main(["pretrain", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(out)]) == 0
    before = (out / "checkpoint.akgp").read_bytes()
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(dict(TINY, pretrain_epochs=3, **change)))
    capsys.readouterr()
    code = main(["pretrain", "--config", str(changed), "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(out), "--resume"])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["message"]
    assert message.endswith(f"(differing keys: {key})")  # epoch counts may change
    assert (out / "checkpoint.akgp").read_bytes() == before


@pytest.mark.parametrize("command, key", [("pretrain", "pretrain_epochs"),
                                          ("finetune", "finetune_epochs")])
def test_resume_with_fewer_epochs_than_done_is_config_error(workdir, tmp_path, capsys,
                                                            command, key):
    out = tmp_path / "run"
    inputs = ["--kg", workdir["kg"], "--data", workdir["data"], "--out", str(out)]
    assert main([command, "--config", workdir["config"], *inputs]) == 0  # 2 epochs
    before = {name: (out / name).read_bytes()
              for name in ("checkpoint.akgp", "run_log.jsonl", "manifest.json")}
    shorter = tmp_path / "one.json"
    shorter.write_text(json.dumps(dict(TINY, **{key: 1})))
    capsys.readouterr()
    code = main([command, "--config", str(shorter), *inputs, "--resume"])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["message"]
    assert message.startswith(f"{key}: 1 is below the 2 epochs")
    assert {name: (out / name).read_bytes() for name in before} == before


def test_retrieve_prints_json_lines(workdir, capsys):
    assert main(["retrieve", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines[:10]:
        record = json.loads(line)
        assert set(record) == {"node_id", "similarity"}


def test_retrieve_encodes_in_batches_and_matches_one_batch_oracle(workdir, capsys,
                                                                  monkeypatch):
    from akgp import trainer
    from akgp.config import parse_config
    from akgp.data import collate, read_examples
    from akgp.kg import build_graph, load_triples
    from akgp.retrieval import cosine_scores, topk_indices
    from akgp.rng import derive_seed
    from akgp.tensor import Tensor

    encode_batch = trainer.encode_batch
    rows = []

    def counted(images, token_bow, params):
        rows.append(images.shape[0])
        return encode_batch(images, token_bow, params)

    monkeypatch.setattr(trainer, "encode_batch", counted)
    assert main(["retrieve", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"]]) == 0
    printed = capsys.readouterr().out
    examples = read_examples(workdir["data"])
    assert sum(rows) == len(examples) > TINY["batch_size"] == max(rows)

    # oracle: every query encoded in one batch
    cfg = parse_config(workdir["config"])
    graph = build_graph(load_triples(workdir["kg"]), cfg.d_k, derive_seed(cfg.seed, "graph"))
    state = trainer.make_run(cfg, graph)
    trainer.start_stage(state, trainer.STAGE_FINETUNE)
    batch = collate(examples, cfg.vocab_size, graph.node_index)
    fused = encode_batch(Tensor(batch.images), Tensor(batch.token_bow),
                         state.model.encoder_params())
    scores = cosine_scores(fused.data, state.cache.knowledge.data)
    top = topk_indices(scores, min(cfg.retrieve_k, graph.n_nodes))
    assert printed == "".join(
        json.dumps({"node_id": graph.node_ids[i], "similarity": float(scores[q, i])},
                   sort_keys=True) + "\n"
        for q, row in enumerate(top) for i in row)


def test_ablate_writes_reports(workdir, tmp_path, capsys):
    out = tmp_path / "abl"
    assert main(["ablate", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(out), "--seed", "0"]) == 0
    csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "config,seed,accuracy"
    assert len(csv_lines) == 1 + 5 * 3
    md = (out / "ablation.md").read_text()
    for name in ("baseline", "+encoder", "+retrieval", "+alignment", "full"):
        assert name in md
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["inputs"]) == sorted(
        [workdir["config"], workdir["kg"], workdir["data"]])


def test_ablate_ignores_akgp_threads(workdir, tmp_path, monkeypatch):
    unset = tmp_path / "unset"
    assert main(["ablate", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(unset), "--seed", "1"]) == 0
    monkeypatch.setenv("AKGP_THREADS", "abc")
    set_ = tmp_path / "set"
    assert main(["ablate", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(set_), "--seed", "1"]) == 0
    assert (unset / "ablation.csv").read_bytes() == (set_ / "ablation.csv").read_bytes()


def _usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_ablate_writes_the_same_bytes_on_any_core_count(workdir, tmp_path, monkeypatch):
    written = []
    for cores in (1, 2, 3):
        _usable_cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        assert main(["ablate", "--config", workdir["config"], "--kg", workdir["kg"],
                     "--data", workdir["data"], "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        written.append({name: (out / name).read_bytes()
                        for name in ("ablation.csv", "ablation.md")})
    assert written[1] == written[0] and written[2] == written[0]


@pytest.mark.parametrize("cores", [1, 2])
def test_ablate_numeric_failure_writes_one_stderr_line(workdir, tmp_path, monkeypatch,
                                                       capfd, cores):
    # capfd also sees what a forked child writes to the process's stderr
    _usable_cores(monkeypatch, cores)
    config = tmp_path / "huge_lr.json"
    config.write_text(json.dumps(dict(TINY, lr=1e300)))
    capfd.readouterr()
    code = main(["ablate", "--config", str(config), "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(tmp_path / "abl")])
    assert code == 3
    err = capfd.readouterr().err
    assert err == json.dumps({"code": 3,
                              "message": "step 2: alignment loss became non-finite"}) + "\n"
    assert multiprocessing.active_children() == []


def test_check_grads_exit_zero(capsys):
    assert main(["check-grads", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "pipeline.total_loss" in out
    assert "FAIL" not in out


def test_missing_config_is_usage_error(workdir, capsys):
    code = main(["pretrain", "--kg", workdir["kg"], "--data", workdir["data"],
                 "--out", "x"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == 1
    assert "--config" in err["message"]


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "code": 1, "message": "missing command; try --help"}


def test_bad_config_value_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tau": -1}')
    code = main(["eval", "--config", str(bad), "--kg", workdir["kg"],
                 "--data", workdir["data"]])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == 2 and "tau" in err["message"]


@pytest.mark.parametrize("payload, key", [
    ('{"lr": "0.1"}', "lr"),
    ('{"world": {"n_entities": "x"}}', "world.n_entities"),
])
def test_config_value_of_wrong_type_is_data_error(workdir, tmp_path, capsys, payload, key):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    code = main(["eval", "--config", str(bad), "--kg", workdir["kg"],
                 "--data", workdir["data"]])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == 2 and key in err["message"]


@pytest.mark.parametrize("key, text", [
    ("lr", "NaN"), ("lr", "1e400"), ("tau", "NaN"), ("lambda1", "Infinity"),
])
def test_non_finite_config_value_is_data_error(workdir, tmp_path, capsys, key, text):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(TINY)[:-1] + f', "{key}": {text}}}')
    code = main(["pretrain", "--config", str(bad), "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(tmp_path / "run")])
    err = json.loads(capsys.readouterr().err.strip())
    assert code == 2 and err["code"] == 2
    assert f" {key}: must be a finite number" in err["message"]


@pytest.mark.parametrize("key, value", [("d_m", 2**40), ("d_m", 10**18), ("vocab_size", 2**31)])
def test_parameter_too_large_to_load_is_config_error(workdir, tmp_path, capsys, key, value):
    # rejected before anything is allocated, naming the key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, **{key: value})))
    code = main(["eval", "--config", str(bad), "--kg", workdir["kg"],
                 "--data", workdir["data"]])
    err = json.loads(capsys.readouterr().err.strip())
    assert code == 2 and err["code"] == 2
    assert key in err["message"].partition(":")[0].split("/"), err["message"]


def test_unknown_config_key_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"temperature": 0.1}')
    assert main(["eval", "--config", str(bad), "--kg", workdir["kg"],
                 "--data", workdir["data"]]) == 2


def test_corrupt_checkpoint_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.akgp"
    bad.write_bytes(b"NOPE" + b"\x00" * 50)
    code = main(["eval", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--checkpoint", str(bad)])
    assert code == 2
    assert "magic" in json.loads(capsys.readouterr().err.strip())["message"]


def test_truncated_checkpoint_is_data_error(workdir, tmp_path, capsys):
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(pre)]) == 0
    raw = (pre / "checkpoint.akgp").read_bytes()
    cut = tmp_path / "cut.akgp"
    cut.write_bytes(raw[: len(raw) // 2])
    assert main(["eval", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--checkpoint", str(cut)]) == 2


def _with_line_2(workdir, tmp_path, **fields):
    """The world's dataset with fields of its second record replaced."""
    with open(workdir["data"]) as fh:
        lines = fh.read().splitlines()
    lines[1] = json.dumps(dict(json.loads(lines[1]), **fields))
    path = tmp_path / "poisoned.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


DATA_COMMANDS = ["pretrain", "finetune", "eval", "retrieve", "ablate"]


def _run_on(workdir, tmp_path, command, data, kg=None):
    argv = [command, "--config", workdir["config"], "--kg", str(kg or workdir["kg"]),
            "--data", str(data)]
    if command in ("pretrain", "finetune", "ablate"):
        argv += ["--out", str(tmp_path / "out")]
    return main(argv)


def _assert_data_error(capsys, code, prefix):
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == 2 and err["message"].startswith(prefix), err["message"]


@pytest.mark.parametrize("command", DATA_COMMANDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_image_features_are_data_error(workdir, tmp_path, capsys, value, command):
    with open(workdir["data"]) as fh:
        features = json.loads(fh.readline())["image_features"]
    data = _with_line_2(workdir, tmp_path, image_features=[value] + features[1:])
    code = _run_on(workdir, tmp_path, command, data)
    _assert_data_error(capsys, code, f"{data}: line 2: field 'image_features': ")


@pytest.mark.parametrize("command", DATA_COMMANDS)
@pytest.mark.parametrize("label", [2, 99, 10**30])  # TINY has 2 classes
def test_label_out_of_range_is_data_error(workdir, tmp_path, capsys, label, command):
    data = _with_line_2(workdir, tmp_path, label=label)
    code = _run_on(workdir, tmp_path, command, data)
    _assert_data_error(capsys, code, f"{data}: line 2: field 'label': {label} ")


@pytest.mark.parametrize("width", [0, 3])  # TINY has 6 features
def test_feature_row_of_other_length_names_the_line(workdir, tmp_path, capsys, width):
    data = _with_line_2(workdir, tmp_path, image_features=[0.5] * width)
    code = _run_on(workdir, tmp_path, "eval", data)
    _assert_data_error(capsys, code, f"{data}: line 2: field 'image_features': {width} numbers")


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_features_narrower_than_d_i_name_the_file(workdir, tmp_path, capsys, command):
    with open(workdir["data"]) as fh:
        records = [json.loads(line) for line in fh]
    data = tmp_path / "narrow.jsonl"
    data.write_text("".join(json.dumps(dict(r, image_features=r["image_features"][:3])) + "\n"
                            for r in records))
    code = _run_on(workdir, tmp_path, command, data)
    _assert_data_error(capsys, code,
                       f"{data}: line 1: field 'image_features': 3 numbers, expected 6")


def _kg_without(workdir, tmp_path, node):
    """The world's triple file with every line naming ``node`` dropped."""
    with open(workdir["kg"]) as fh:
        kept = [line for line in fh if node not in line.rstrip("\n").split("\t")]
    path = tmp_path / "kg_without.tsv"
    path.write_text("".join(kept))
    return path


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_gold_node_missing_from_graph_names_the_line(workdir, tmp_path, capsys, command):
    kg = _kg_without(workdir, tmp_path, "entity_003")
    with open(workdir["data"]) as fh:
        golds = [json.loads(line)["gold_node"] for line in fh]
    line = golds.index("entity_003") + 1
    code = _run_on(workdir, tmp_path, command, workdir["data"], kg)
    _assert_data_error(capsys, code, f"{workdir['data']}: line {line}: gold node "
                                     "'entity_003' not present in the graph")


def test_ablate_counts_test_split_lines_from_the_start_of_the_file(workdir, tmp_path,
                                                                   capsys):
    kg = _kg_without(workdir, tmp_path, "entity_003")
    with open(workdir["data"]) as fh:
        lines = fh.read().splitlines()
    missing = [json.loads(line)["gold_node"] == "entity_003" for line in lines]
    kept = [line for line, gone in zip(lines, missing) if not gone]
    # only the last line, which the ablation's test split holds, names the node
    data = tmp_path / "missing_last.jsonl"
    data.write_text("\n".join(kept + [lines[missing.index(True)]]) + "\n")
    code = _run_on(workdir, tmp_path, "ablate", data, kg)
    _assert_data_error(capsys, code, f"{data}: line {len(kept) + 1}: gold node 'entity_003' ")


def test_nan_during_finetune_exits_numeric(workdir, tmp_path, capsys):
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(pre)]) == 0
    data = load_checkpoint(pre / "checkpoint.akgp")
    data.tensors["theta_a.w_out"][0, 0] = float("nan")
    poisoned = tmp_path / "poisoned.akgp"
    save_checkpoint(poisoned, json.dumps(data.config), data.tensors, data.opt_buffers,
                    data.stage, data.epochs_done, data.adam_t, data.rng_state)
    code = main(["finetune", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--checkpoint", str(poisoned),
                 "--out", str(tmp_path / "fine")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == 3 and "step 1" in err["message"]


def test_numeric_failure_writes_one_stderr_line(workdir, tmp_path):
    """numpy's overflow warnings must not reach stderr ahead of the JSON line."""
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(dict(TINY, lambda1=1e308, freeze=["theta_v"])))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-m", "akgp.cli", "finetune", "--config", str(config),
         "--kg", workdir["kg"], "--data", workdir["data"], "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["code"] == 3


@pytest.mark.parametrize("name", ["kg", "data"])
def test_non_utf8_input_names_the_file(workdir, tmp_path, capsys, name):
    bad = tmp_path / f"bad_{name}"
    bad.write_bytes(open(workdir[name], "rb").read()[:4] + b"\xff\n")
    paths = dict(workdir, **{name: str(bad)})
    code = main(["eval", "--config", workdir["config"], "--kg", paths["kg"],
                 "--data", paths["data"]])
    err = json.loads(capsys.readouterr().err.strip())
    assert code == 2 and err["code"] == 2
    assert str(bad) in err["message"] and "utf-8" in err["message"].lower()


def test_malformed_kg_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tr\tb\nbad line\n")
    code = main(["eval", "--config", workdir["config"], "--kg", str(bad),
                 "--data", workdir["data"]])
    _assert_data_error(capsys, code,
                       f"{bad}: line 2: expected 3 tab-separated fields, got 1")


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--config", str(config), "--out", str(root / "world")]) == 0
    lines = (root / "world" / "dataset.jsonl").read_text().splitlines()
    return {"root": root, "config": str(config), "kg": str(root / "world" / "kg.tsv"),
            "data": str(root / "world" / "dataset.jsonl"),
            "records": [json.loads(line) for line in lines]}


# edge values first; floats include NaN and the infinities
NUMBERS = (st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -0.0, -1,
                            2**63, 10**400]) | st.integers() | st.floats())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
# per field, values near its type first, then any JSON value
FIELD_VALUES = {
    "image_features": st.lists(NUMBERS, max_size=8) | JSON_VALUES,
    "token_ids": st.lists(st.integers(), min_size=1, max_size=4) | JSON_VALUES,
    "label": st.integers(-1, 2 * TINY["n_classes"]) | NUMBERS | JSON_VALUES,
    "gold_node": st.text(max_size=4) | JSON_VALUES,
    "extra": JSON_VALUES,
}


@st.composite
def mutated_line(draw, record):
    """One record's JSON text after one edit: a field set or dropped, one
    list item set, the whole record replaced, or its text cut short."""
    record = json.loads(json.dumps(record))  # a deep copy
    kind = draw(st.sampled_from(["set"] * 4 + ["item"] * 2 + ["drop", "record", "cut"]))
    field = draw(st.sampled_from(sorted(FIELD_VALUES)))
    if kind == "set":
        record[field] = draw(FIELD_VALUES[field])
    elif kind == "item":
        items = record[draw(st.sampled_from(["image_features", "token_ids"]))]
        items[draw(st.integers(0, len(items) - 1))] = draw(NUMBERS | JSON_VALUES)
    elif kind == "drop":
        record.pop(field, None)
    elif kind == "record":
        record = draw(JSON_VALUES)
    text = json.dumps(record)
    return text[:draw(st.integers(0, len(text) - 1))] if kind == "cut" else text


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def _assert_output_contract(argv):
    """Exit 0, 2 or 3; stderr one JSON line exactly when the exit is not 0;
    every stdout line strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    err_lines = err.getvalue().splitlines()
    assert len(err_lines) == (code != 0), err.getvalue()
    if err_lines:
        record = json.loads(err_lines[0], parse_constant=_no_constants)
        assert record["code"] == code and isinstance(record["message"], str)
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_no_constants)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eval_on_mutated_records_keeps_the_output_contract(fuzz_world, data):
    records = fuzz_world["records"]
    lines = [json.dumps(record) for record in records]
    for row in data.draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=3)):
        lines[row] = data.draw(mutated_line(records[row]))
    path = fuzz_world["root"] / "mutated.jsonl"
    path.write_text("\n".join(lines) + "\n")
    _assert_output_contract(["eval", "--config", fuzz_world["config"], "--kg", fuzz_world["kg"],
                             "--data", str(path)])


# edge strings first, then any short text
TSV_TEXT = st.sampled_from(["", "#", "\t", "\x00", "é", "知识", "a\tb\tc\td"]) | st.text(max_size=6)


@st.composite
def mutated_tsv(draw, lines):
    """A triple file's text after one to three edits: a field set, a line
    replaced, dropped, duplicated or cut; then maybe the whole text cut short."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field"] * 3 + ["line", "drop", "duplicate", "cut"]))
        row = draw(st.integers(0, len(lines) - 1))
        if kind == "field":
            fields = lines[row].split("\t")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(TSV_TEXT)
            lines[row] = "\t".join(fields)
        elif kind == "line":
            lines[row] = draw(TSV_TEXT)
        elif kind == "drop" and len(lines) > 1:
            del lines[row]
        elif kind == "duplicate":
            lines.insert(row, lines[row])
        elif kind == "cut":
            lines[row] = lines[row][:draw(st.integers(0, len(lines[row])))]
    text = "\n".join(lines) + "\n"
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eval_on_mutated_triples_keeps_the_output_contract(fuzz_world, data):
    with open(fuzz_world["kg"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    path = fuzz_world["root"] / "mutated.tsv"
    path.write_text(data.draw(mutated_tsv(lines)), encoding="utf-8")
    _assert_output_contract(["eval", "--config", fuzz_world["config"], "--kg", str(path),
                             "--data", fuzz_world["data"]])


# every config key, "world" itself included, and value texts that break a
# type, a finite number, a size or the freeze groups; allocatable large sizes
# (d_m = 2**13, say) are valid and left out
CONFIG_KEYS = ([f for f in TrainConfig.__dataclass_fields__ if f != "world"] + ["world"]
               + [f"world.{f}" for f in WorldConfig.__dataclass_fields__])
CONFIG_TEXTS = ["null", "true", "false", '"x"', '""', "[]", "[1]", "{}", '{"a": 1}',
                "NaN", "Infinity", "-Infinity", "1e400",
                "0", "-1", str(2**31), str(2**40), str(2**63), str(10**30),
                '["theta_z"]', '["theta_v", "w_q"]']


@settings(max_examples=150, deadline=None)
@given(changes=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_TEXTS)),
                        min_size=1, max_size=2))
@example(changes=[("d_m", str(2**40))])
def test_eval_on_mutated_config_keeps_the_output_contract(fuzz_world, changes):
    config = json.loads(json.dumps(TINY))  # a deep copy
    for i, (key, _) in enumerate(changes):
        section, _, name = key.rpartition(".")
        target = config.get(section) if section else config
        if isinstance(target, dict):
            target[name] = f"@{i}@"
    text = json.dumps(config)
    for i, (_, value) in enumerate(changes):
        text = text.replace(f'"@{i}@"', value)
    path = fuzz_world["root"] / "mutated.json"
    path.write_text(text)
    _assert_output_contract(["eval", "--config", str(path), "--kg", fuzz_world["kg"],
                             "--data", fuzz_world["data"]])
