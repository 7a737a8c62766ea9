"""Adam update semantics: bias correction, freeze contract, grad clearing."""

import numpy as np
import pytest

from akgp.optim import AdamState, OptimizerError, adam_step
from akgp.tensor import Tensor


class OneGroupModel:
    def __init__(self, tensors):
        self.tensors = tensors

    def named_tensors(self):
        return list(self.tensors.items())


def scalar_param(value, grad=None):
    t = Tensor(np.asarray([value]), requires_grad=True)
    if grad is not None:
        t.grad[...] = grad
    return t


def test_first_step_moves_by_lr():
    w = scalar_param(0.0, grad=1.0)
    model = OneGroupModel({"w": w})
    adam_step(model, AdamState(), lr=0.1)
    assert w.data[0] == pytest.approx(-0.1, abs=1e-9)


def test_zero_grad_leaves_param_decays_moments():
    w = scalar_param(1.0, grad=1.0)
    model = OneGroupModel({"w": w})
    state = AdamState()
    adam_step(model, state, lr=0.1)
    m_before = state.m["w"].copy()
    w.zero_grad()
    value_before = w.data.copy()
    adam_step(model, state, lr=0.1)
    assert not np.array_equal(w.data, value_before)  # momentum still active
    assert abs(state.m["w"][0]) < abs(m_before[0])   # first moment decayed

    # fresh state with zero grad: no movement at all
    w2 = scalar_param(1.0, grad=0.0)
    adam_step(OneGroupModel({"w2": w2}), AdamState(), lr=0.1)
    assert w2.data[0] == 1.0


def test_frozen_tensor_untouched_even_with_grad():
    w = scalar_param(2.0, grad=5.0)
    w.requires_grad = False
    state = AdamState()
    adam_step(OneGroupModel({"w": w}), state, lr=0.1)
    assert w.data[0] == 2.0
    assert "w" not in state.m


def test_missing_grad_raises():
    w = Tensor(np.asarray([1.0]), requires_grad=True)
    w.grad = None
    with pytest.raises(OptimizerError):
        adam_step(OneGroupModel({"w": w}), AdamState(), lr=0.1)


def test_grads_zeroed_after_step():
    w = scalar_param(0.0, grad=1.0)
    adam_step(OneGroupModel({"w": w}), AdamState(), lr=0.1)
    assert np.array_equal(w.grad, [0.0])


def test_converges_on_quadratic():
    w = scalar_param(5.0)
    model = OneGroupModel({"w": w})
    state = AdamState()
    for _ in range(400):
        w.grad[...] = 2.0 * (w.data - 3.0)  # d/dw (w-3)^2
        adam_step(model, state, lr=0.05)
    assert w.data[0] == pytest.approx(3.0, abs=1e-2)


def adam_loop(tensors, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor Adam update the flat step replaced, on plain arrays."""
    correction1, correction2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for name, (data, grad) in tensors.items():
        m.setdefault(name, np.zeros_like(data))
        v.setdefault(name, np.zeros_like(data))
        m[name] *= beta1
        m[name] += (1.0 - beta1) * grad
        v[name] *= beta2
        v[name] += (1.0 - beta2) * grad * grad
        data -= lr * (m[name] / correction1) / (np.sqrt(v[name] / correction2) + eps)


def test_flat_step_bit_equal_to_per_tensor_loop_across_a_freeze():
    rng = np.random.default_rng(0)
    shapes = {"a": (3, 4), "b": (4,), "c": (2, 2, 2)}
    model = OneGroupModel({n: Tensor(rng.standard_normal(s), requires_grad=True)
                           for n, s in shapes.items()})
    ref = {n: t.data.copy() for n, t in model.tensors.items()}
    for stage, frozen in enumerate(([], ["b"])):
        for name, t in model.tensors.items():
            t.requires_grad_(name not in frozen)
        state, m, v = AdamState(), {}, {}
        frozen_bytes = {n: model.tensors[n].data.tobytes() for n in frozen}
        for step in range(1, 6):
            grads = {n: rng.standard_normal(shapes[n]) for n in shapes if n not in frozen}
            for name, g in grads.items():
                model.tensors[name].grad[...] = g
            adam_step(model, state, lr=0.05)
            adam_loop({n: (ref[n], g) for n, g in grads.items()}, m, v, step, lr=0.05)
            for name, t in model.tensors.items():
                assert t.data.tobytes() == ref[name].tobytes(), (stage, step, name)
            assert sorted(state.m) == sorted(m)
            for name in m:
                assert state.m[name].tobytes() == m[name].tobytes()
                assert state.v[name].tobytes() == v[name].tobytes()
        for name in frozen:
            assert model.tensors[name].data.tobytes() == frozen_bytes[name]


def test_moments_copied_into_views_set_the_next_step():
    w = scalar_param(1.0, grad=1.0)
    model = OneGroupModel({"w": w})
    state = AdamState()
    adam_step(model, state, lr=0.1)
    state.m["w"][...] = 0.0
    state.v["w"][...] = 0.0
    w.grad[...] = 0.0
    before = w.data.copy()
    adam_step(model, state, lr=0.1)
    assert np.array_equal(w.data, before)
