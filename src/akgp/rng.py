"""Deterministic pseudo-random number generation with serializable state.

A splitmix64 stream expands a single integer seed into the 256-bit state of
a xoshiro256** generator. All stochastic behaviour in this package (weight
init, shuffling, negative sampling, synthetic data) draws from these
generators, so a run is fully reproducible from its seed and generator
state can be frozen into checkpoints for exact resume.

splitmix64 is counter-based, so blocks of it vectorize cleanly in numpy;
:func:`splitmix64_array` expands one 64-bit word from the sequential stream
into an arbitrary batch of independent words without advancing any state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT27, _SHIFT30, _SHIFT31 = np.uint64(27), np.uint64(30), np.uint64(31)

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state, returning (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def splitmix64_array(seed, count: int) -> np.ndarray:
    """``count`` splitmix64 outputs for counters 1..count, as uint64.

    Bit-identical to calling :func:`splitmix64` sequentially from ``seed``.
    A sequence of seeds gives a (len(seed), count) array, one row per seed.
    """
    if np.ndim(seed):
        start = np.asarray(seed, dtype=np.uint64)[:, None]
    else:
        start = np.uint64(seed & _MASK64)
    z = np.arange(1, count + 1, dtype=np.uint64)  # array arithmetic wraps silently
    z *= _GAMMA
    z = z + start
    z ^= z >> _SHIFT30
    z *= _MIX1
    z ^= z >> _SHIFT27
    z *= _MIX2
    z ^= z >> _SHIFT31
    return z


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, tag: str) -> int:
    """Derive a child seed from (seed, tag), stable across runs.

    Tags keep independent random streams (model init, data generation,
    per-stage training) from colliding when they share one master seed.
    """
    _, mixed = splitmix64((seed & _MASK64) ^ fnv1a_64(tag.encode("utf-8")))
    return mixed


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator seeded via splitmix64.

    State is four 64-bit words, exposed through ``get_state``/``set_state``
    so training loops can serialize mid-run position exactly.
    """

    def __init__(self, seed: int):
        s = seed & _MASK64
        words = []
        for _ in range(4):
            s, z = splitmix64(s)
            words.append(z)
        self._s = words

    def get_state(self) -> tuple[int, int, int, int]:
        return tuple(self._s)

    def set_state(self, state) -> None:
        words = [int(w) & _MASK64 for w in state]
        if len(words) != 4:
            raise ValueError(f"xoshiro256 state needs 4 words, got {len(words)}")
        self._s = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53  # in [0, 1)
        return low + (high - low) * u

    def uniform_array(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``n`` draws of :meth:`uniform` as a float64 array.

        Bit-identical to ``n`` sequential ``uniform(low, high)`` calls, and
        leaves the generator in the same state; the step of
        :meth:`next_u64` is inlined into one loop over local variables.
        """
        s0, s1, s2, s3 = self._s
        span = high - low
        out = [0.0] * n
        for i in range(n):
            x = (s1 * 5) & _MASK64
            result = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            out[i] = low + span * ((result >> 11) * 2.0 ** -53)
        self._s = [s0, s1, s2, s3]
        return np.array(out, dtype=np.float64)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self) -> float:
        """Standard normal via Box-Muller (spare value discarded)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53  # in (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
