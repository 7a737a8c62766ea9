"""Config parsing: defaults, strict unknown-key rejection, invariants."""

import json
import re

import pytest

from akgp.config import ConfigError, TrainConfig, parse_config


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_empty_config_takes_documented_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, {}))
    assert cfg.tau == 0.07
    assert cfg.lambda1 == 1.0 and cfg.lambda2 == 1.0
    assert cfg.n_negatives == 8
    assert cfg.lr == 1e-3
    assert cfg.gate == "literal"
    assert cfg.freeze == ["theta_v", "theta_t", "theta_m", "theta_k"]


def test_single_override_keeps_other_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, {"lambda1": 0.5}))
    assert cfg.lambda1 == 0.5
    assert cfg.lambda2 == 1.0
    assert cfg.tau == 0.07


def test_negative_tau_error_names_key(tmp_path):
    with pytest.raises(ConfigError, match="tau"):
        parse_config(write(tmp_path, {"tau": -1}))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="temperature"):
        parse_config(write(tmp_path, {"temperature": 0.1}))


def test_unknown_world_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="world.n_planets"):
        parse_config(write(tmp_path, {"world": {"n_planets": 8}}))


def test_world_overrides(tmp_path):
    cfg = parse_config(write(tmp_path, {"world": {"n_entities": 10, "sigma_noise": 0.1}}))
    assert cfg.world.n_entities == 10
    assert cfg.world.sigma_noise == 0.1
    assert cfg.world.n_attributes == 4


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path)


def test_all_frozen_rejected(tmp_path):
    frozen = ["theta_v", "theta_t", "theta_m", "theta_k", "w_g", "theta_a"]
    with pytest.raises(ConfigError, match="freeze"):
        parse_config(write(tmp_path, {"freeze": frozen}))


def test_bad_gate_mode(tmp_path):
    with pytest.raises(ConfigError, match="gate"):
        parse_config(write(tmp_path, {"gate": "open"}))


def test_snapshot_is_deterministic():
    a = TrainConfig()
    b = TrainConfig()
    assert a.snapshot_json() == b.snapshot_json()
    assert json.loads(a.snapshot_json())["tau"] == 0.07


def test_embedded_width_tracks_d_m():
    cfg = TrainConfig(d_m=48)
    assert cfg.d_e == 48


@pytest.mark.parametrize("payload, key", [
    ({"lr": "0.1"}, "lr"),
    ({"world": {"n_entities": "x"}}, "world.n_entities"),
    ({"d_i": 1.5}, "d_i"),
    ({"batch_size": True}, "batch_size"),
    ({"freeze": "theta_v"}, "freeze"),
    ({"freeze": ["theta_v", 3]}, "freeze"),
    ({"gate": 1}, "gate"),
])
def test_value_of_wrong_type_names_key(tmp_path, payload, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(write(tmp_path, payload))


def test_integer_accepted_for_float_field(tmp_path):
    cfg = parse_config(write(tmp_path, {"lr": 1, "world": {"sigma_noise": 0}}))
    assert cfg.lr == 1 and cfg.world.sigma_noise == 0
