"""Command-line contract: artifacts, manifests, determinism, exit codes."""

import json
import os

import pytest

import akgp.cli
from akgp.checkpoint import load_checkpoint, save_checkpoint
from akgp.cli import main

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


def test_retrieve_prints_json_lines(workdir, capsys):
    assert main(["retrieve", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines[:10]:
        record = json.loads(line)
        assert set(record) == {"node_id", "similarity"}


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


def test_ablate_thread_cap_does_not_change_results(workdir, tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    assert main(["ablate", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(serial), "--seed", "1"]) == 0
    monkeypatch.setenv("AKGP_THREADS", "3")
    threaded = tmp_path / "threaded"
    assert main(["ablate", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", workdir["data"], "--out", str(threaded), "--seed", "1"]) == 0
    assert (serial / "ablation.csv").read_bytes() == (threaded / "ablation.csv").read_bytes()


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


def test_nan_input_aborts_with_numeric_exit(workdir, tmp_path, capsys):
    poisoned = tmp_path / "poisoned.jsonl"
    with open(workdir["data"]) as fh:
        first = json.loads(fh.readline())
    first["image_features"][0] = float("nan")
    poisoned.write_text(json.dumps(first) + "\n")
    code = main(["pretrain", "--config", workdir["config"], "--kg", workdir["kg"],
                 "--data", str(poisoned), "--out", str(tmp_path / "nanrun")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == 3 and "step 1" in err["message"]


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


def test_malformed_kg_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tr\tb\nno tabs here\n")
    code = main(["eval", "--config", workdir["config"], "--kg", str(bad),
                 "--data", workdir["data"]])
    assert code == 2
    assert "line 2" in json.loads(capsys.readouterr().err.strip())["message"]
