"""Config parsing: defaults, strict unknown-key rejection, invariants."""

import json
import re
import typing

import pytest

from akgp.config import ConfigError, TrainConfig, WorldConfig, parse_config


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


@pytest.mark.parametrize("overrides, key", [
    ({"freeze": ["theta_v", "theta_z"]}, "freeze"),
    ({"lambda1": 0.0, "lambda2": 0.0}, "lambda1/lambda2"),
    ({"n_negatives": 0}, "n_negatives"),
    ({"denominator": "sideways"}, "denominator"),
    ({"d_m": 2**40}, "d_i/d_m"),  # 2**44 elements in the visual weight
    ({"vocab_size": 2**24 + 1}, "vocab_size/d_t"),
    ({"d_m": 2**14}, "d_m"),  # the 2*d_m x d_m fusion weight: 2**29 elements
    ({"d_a": 2**27 + 1, "d_m": 1}, "d_m/d_a"),
    ({"n_classes": 2**24, "d_a": 2**5}, "d_a/n_classes"),
])
def test_invalid_value_names_key(overrides, key):
    with pytest.raises(ConfigError, match="^" + re.escape(key + ":")):
        TrainConfig(**overrides).validate()


def test_largest_loadable_parameter_is_valid():
    TrainConfig(vocab_size=2**24, d_t=16).validate()  # 2**28 elements: no allocation


def test_bad_gate_mode(tmp_path):
    with pytest.raises(ConfigError, match="gate"):
        parse_config(write(tmp_path, {"gate": "open"}))


def test_snapshot_is_deterministic():
    a = TrainConfig()
    b = TrainConfig()
    assert a.snapshot_json() == b.snapshot_json()
    assert json.loads(a.snapshot_json())["tau"] == 0.07


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


def _float_keys():
    """Every float field, qualified as a config file names it."""
    keys = [k for k, t in typing.get_type_hints(TrainConfig).items() if t is float]
    return keys + [f"world.{k}" for k, t in typing.get_type_hints(WorldConfig).items()
                   if t is float]


def test_float_keys_cover_both_sections():
    assert {"lr", "tau", "lambda1", "world.sigma_noise"} <= set(_float_keys())


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400",
                                  pytest.param("1" + "0" * 400, id="10**400")])
@pytest.mark.parametrize("key", _float_keys())
def test_non_finite_float_names_key(tmp_path, key, text):
    section, _, name = key.rpartition(".")
    value = f'{{"{name}": {text}}}'
    path = tmp_path / "config.json"
    path.write_text(f'{{"{section}": {value}}}' if section else value)
    with pytest.raises(ConfigError, match=rf" {re.escape(key)}: must be a finite number"):
        parse_config(path)
