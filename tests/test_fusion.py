"""Gate modes, adaptor head, and freeze mechanics."""

import numpy as np
import pytest

from akgp.config import ConfigError, TrainConfig
from akgp.fusion import (
    PARAM_GROUPS,
    AdaptorParams,
    GateParams,
    adapt_task,
    gate_integrate,
    set_frozen,
)
from akgp.kg import build_graph
from akgp.trainer import make_run
from akgp.tensor import Tensor, constant, fd_check, from_array, mul, sum_all, uniform, xavier, zeros


def gate_params(d_m=3, mode="literal", seed=0):
    return GateParams(weight=xavier([2 * d_m, d_m], seed), bias=zeros([d_m]), mode=mode)


def adaptor_params(d_m=3, d_a=4, n_classes=2, seed=5):
    return AdaptorParams(
        w_hidden=xavier([2 * d_m, d_a], seed),
        b_hidden=zeros([d_a]),
        w_out=xavier([d_a, n_classes], seed + 1),
        b_out=zeros([n_classes]),
    )


def test_literal_gate_zero_weights_gives_half():
    p = GateParams(weight=zeros([6, 3]), bias=zeros([3]), mode="literal")
    out = gate_integrate(uniform([1, 3], -1, 1, 1), uniform([1, 3], -1, 1, 2), p)
    assert np.allclose(out.data, 0.5)


def test_literal_gate_output_in_unit_interval():
    p = gate_params(seed=3)
    out = gate_integrate(uniform([1, 3], -5, 5, 4), uniform([1, 3], -5, 5, 5), p)
    assert np.all(out.data > 0) and np.all(out.data < 1)


def test_residual_gate_saturated_returns_fused():
    p = GateParams(weight=zeros([6, 3]), bias=constant([3], 50.0), mode="residual")
    m = uniform([1, 3], -1, 1, 6)
    out = gate_integrate(m, uniform([1, 3], -1, 1, 7), p)
    assert np.allclose(out.data, m.data, atol=1e-9)


def test_residual_gate_is_convex_combination():
    p = gate_params(mode="residual", seed=8)
    m = uniform([1, 3], -1, 1, 9)
    k = uniform([1, 3], -1, 1, 10)
    out = gate_integrate(m, k, p)
    lo = np.minimum(m.data, k.data)
    hi = np.maximum(m.data, k.data)
    assert np.all(out.data >= lo - 1e-12) and np.all(out.data <= hi + 1e-12)


@pytest.mark.parametrize("mode", ["literal", "residual"])
def test_gate_gradient_wrt_weights(mode):
    m = uniform([1, 3], -1, 1, 11)
    k = uniform([1, 3], -1, 1, 12)

    def f(w):
        p = GateParams(weight=w, bias=zeros([3]), mode=mode)
        out = gate_integrate(m, k, p)
        return sum_all(mul(out, out))

    assert fd_check(f, xavier([6, 3], 13)).passed


def test_gate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        GateParams(weight=zeros([6, 3]), bias=zeros([3]), mode="multiplicative")


def test_adaptor_zero_inputs_uniform_posterior():
    p = adaptor_params()
    logits = adapt_task(zeros([1, 3]), zeros([1, 3]), p)
    assert np.allclose(logits.data, 0.0)


def test_adaptor_hand_constructed_separation():
    p = adaptor_params(d_m=1, d_a=2, n_classes=2)
    p.w_hidden = from_array([[1.0, -1.0], [0.0, 0.0]])
    p.w_out = from_array([[1.0, -1.0], [-1.0, 1.0]])
    plus = adapt_task(from_array([[2.0]]), from_array([[0.0]]), p)
    minus = adapt_task(from_array([[-2.0]]), from_array([[0.0]]), p)
    assert int(np.argmax(plus.data)) == 0
    assert int(np.argmax(minus.data)) == 1


def test_adaptor_gradient_wrt_params():
    m = uniform([1, 3], -1, 1, 14)
    k = uniform([1, 3], -1, 1, 15)
    base = adaptor_params(seed=16)

    for attr in ("w_hidden", "w_out", "b_hidden", "b_out"):
        def f(x, _attr=attr):
            probe = adaptor_params(seed=16)
            setattr(probe, _attr, x)
            out = adapt_task(m, k, probe)
            return sum_all(mul(out, out))

        assert fd_check(f, Tensor(getattr(base, attr).data.copy())).passed, attr


class _FakeModel:
    def __init__(self):
        self._groups = {
            name: {"w": zeros([2, 2])}
            for name in ("theta_v", "theta_t", "theta_m", "theta_k", "w_g", "theta_a")
        }

    def groups(self):
        return self._groups


def test_freeze_policy_default_finetune():
    model = _FakeModel()
    set_frozen(model, TrainConfig().freeze)
    trainable = [g for g, tensors in model.groups().items() if tensors["w"].requires_grad]
    assert trainable == ["w_g", "theta_a"]


def test_freeze_policy_applies_flags():
    model = _FakeModel()
    set_frozen(model, ["theta_v"])
    assert not model._groups["theta_v"]["w"].requires_grad
    assert model._groups["theta_v"]["w"].grad is None
    assert model._groups["theta_a"]["w"].requires_grad
    assert model._groups["theta_a"]["w"].grad is not None
    set_frozen(model, [])  # thaws what an earlier call froze
    assert model._groups["theta_v"]["w"].requires_grad


def _make_run_with_freeze(frozen):
    """make_run validates an in-program config as parse_config does."""
    cfg = TrainConfig(freeze=frozen)
    make_run(cfg, build_graph([("a", "r", "b")]))


def test_freeze_policy_all_frozen_rejected():
    with pytest.raises(ConfigError, match="^freeze: at least one group"):
        _make_run_with_freeze(list(PARAM_GROUPS))


def test_freeze_policy_unknown_group_rejected():
    with pytest.raises(ConfigError, match=r"^freeze: unknown group\(s\) \['theta_z'\]"):
        _make_run_with_freeze(["theta_v", "theta_z"])
