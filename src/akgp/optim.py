"""Adam with bias correction over the model's named tensors.

Frozen tensors (requires_grad False) are skipped entirely: no update, no
moment decay, bit-identical before and after. Gradients of stepped tensors
are zeroed once consumed.

The trainable tensors share one flat parameter buffer, one flat gradient
buffer and one flat buffer per moment, so a step is a handful of array
operations however many tensors there are. Each tensor's ``data`` and
``grad``, and each entry of :attr:`AdamState.m` and :attr:`AdamState.v`,
is a view of its slice. The update is elementwise, so it gives the same bits
as a step tensor by tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class OptimizerError(RuntimeError):
    """A trainable tensor is missing its gradient buffer."""


class _FlatSet:
    """Flat buffers for one trainable set, with each tensor's views into them."""

    def __init__(self, trainable: list, state: "AdamState"):
        sizes = [tensor.size for _, tensor in trainable]
        total = sum(sizes)
        self.params = np.empty(total)
        self.grads = np.empty(total)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self.members = []
        lo = 0
        for (name, tensor), size in zip(trainable, sizes):
            hi = lo + size
            shape = tensor.data.shape
            self.params[lo:hi] = tensor.data.reshape(-1)
            self.grads[lo:hi] = tensor.grad.reshape(-1)
            tensor.data = self.params[lo:hi].reshape(shape)
            tensor.grad = self.grads[lo:hi].reshape(shape)
            for flat, moments in ((self.m, state.m), (self.v, state.v)):
                earlier = moments.get(name)
                if earlier is not None:
                    flat[lo:hi] = earlier.reshape(-1)
                moments[name] = flat[lo:hi].reshape(shape)
            self.members.append((tensor, tensor.data, tensor.grad))
            lo = hi

    def serves(self, trainable: list) -> bool:
        """True while ``trainable`` is this set, each tensor still on its views."""
        return len(trainable) == len(self.members) and all(
            tensor is member and tensor.data is data and tensor.grad is grad
            for (_, tensor), (member, data, grad) in zip(trainable, self.members))


@dataclass
class AdamState:
    """First/second moment buffers keyed by qualified tensor name.

    A tensor's moments appear at its first step. While it trains they are
    views into the flat buffers; copying into them (as a resume does) sets
    the moments the next step starts from.
    """

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    flat: _FlatSet | None = field(default=None, repr=False, compare=False)


def _trainable(model) -> list:
    trainable = []
    for name, tensor in model.named_tensors():
        if not tensor.requires_grad:
            continue
        if tensor.grad is None:
            raise OptimizerError(f"trainable tensor {name} has no gradient buffer")
        trainable.append((name, tensor))
    return trainable


def adam_step(model, state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place update over every trainable tensor of the model."""
    trainable = _trainable(model)
    if state.flat is None or not state.flat.serves(trainable):
        state.flat = _FlatSet(trainable, state)
    flat = state.flat
    state.t += 1
    correction1 = 1.0 - beta1 ** state.t
    correction2 = 1.0 - beta2 ** state.t
    g, m, v = flat.grads, flat.m, flat.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    m_hat = m / correction1
    v_hat = v / correction2
    flat.params -= lr * m_hat / (np.sqrt(v_hat) + eps)
    g.fill(0.0)
