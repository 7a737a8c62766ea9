"""Adam with bias correction over the model's named tensors.

Frozen tensors (requires_grad False) are skipped entirely: no update, no
moment decay, bit-identical before and after. Gradients of stepped tensors
are zeroed once consumed.

The trainable tensors share one flat parameter buffer, one flat gradient
buffer and one flat buffer per moment, so a step is a handful of array
operations however many tensors there are. Each tensor's ``data`` and
``grad``, and each entry of :attr:`AdamState.m` and :attr:`AdamState.v`,
is a view of its slice. The update runs in place, through one scratch
buffer of the set's size and the gradient buffer, which it zeroes anyway;
it is elementwise, with the operations of a step tensor by tensor, so it
gives the same bits. The flat set is built at a state's first step and
rebuilt when the model's tensors, which of them train, or a trainable
tensor's ``data`` or ``grad`` array change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class OptimizerError(RuntimeError):
    """A trainable tensor is missing its gradient buffer."""


class _FlatSet:
    """Flat buffers for one trainable set, with each tensor's views into them."""

    def __init__(self, named: list, state: "AdamState"):
        self.tensors = [tensor for _, tensor in named]
        self.trains = [tensor.requires_grad for tensor in self.tensors]
        trainable = _trainable(named)
        sizes = [tensor.size for _, tensor in trainable]
        total = sum(sizes)
        self.params = np.empty(total)
        self.grads = np.empty(total)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self.scratch = np.empty(total)
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

    def serves(self, named: list) -> bool:
        """True while ``named`` holds this set's tensors, by identity, the
        same of them trainable, and each trainable one still on its views."""
        tensors = [tensor for _, tensor in named]
        if tensors != self.tensors or [t.requires_grad for t in tensors] != self.trains:
            return False
        for tensor, data, grad in self.members:
            if tensor.data is not data or tensor.grad is not grad:
                return False
        return True


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


def _trainable(named: list) -> list:
    trainable = []
    for name, tensor in named:
        if not tensor.requires_grad:
            continue
        if tensor.grad is None:
            raise OptimizerError(f"trainable tensor {name} has no gradient buffer")
        trainable.append((name, tensor))
    return trainable


def adam_step(model, state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place update over every trainable tensor of the model.

    Per element, in this order: ``m = beta1 * m + (1 - beta1) * g``,
    ``v = beta2 * v + (1 - beta2) * g * g``, and
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` with the bias corrections
    ``c1 = 1 - beta1 ** t`` and ``c2 = 1 - beta2 ** t``.
    """
    named = model.named_tensors()
    if state.flat is None or not state.flat.serves(named):
        state.flat = _FlatSet(named, state)
    flat = state.flat
    state.t += 1
    correction1 = 1.0 - beta1 ** state.t
    correction2 = 1.0 - beta2 ** state.t
    g, m, v, s = flat.grads, flat.m, flat.v, flat.scratch
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=s)
    m += s
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=s)
    s *= g
    v += s
    np.divide(m, correction1, out=s)  # m_hat
    s *= lr
    np.divide(v, correction2, out=g)  # v_hat, over the consumed gradient
    np.sqrt(g, out=g)
    g += eps
    s /= g
    flat.params -= s
    g.fill(0.0)
