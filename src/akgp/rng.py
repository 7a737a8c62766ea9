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

import array
import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT27, _SHIFT30, _SHIFT31 = np.uint64(27), np.uint64(30), np.uint64(31)

_LANE = 256  # xoshiro steps per lane of Rng.uniform_array
_LANES_FROM = 5120  # measured on 2 cores: fewer draws run faster in one loop

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


def _xoshiro_steps(state, seen):
    """Advance ``state`` by ``len(seen)`` xoshiro256 steps, writing step i's
    ``s1`` to ``seen[i]``; return the final state. The state is four ints,
    or four uint64 arrays with one lane per element, which it may update in
    place and on which the masks change nothing."""
    s0, s1, s2, s3 = state
    for i in range(len(seen)):
        seen[i] = s1
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    return [s0, s1, s2, s3]


@functools.cache
def _jump_table() -> np.ndarray:
    """(4, 256) read-only uint64: column b is the state with only bit b % 64
    of word b // 64 set, advanced one lane."""
    bit = np.arange(256, dtype=np.uint64)
    units = np.zeros((4, 256), dtype=np.uint64)
    units[bit // 64, bit] = np.uint64(1) << (bit % 64)
    table = np.array(_xoshiro_steps(units, np.empty((_LANE, 256), dtype=np.uint64)))
    table.flags.writeable = False
    return table


def _jump(state: np.ndarray) -> np.ndarray:
    """A (4,) uint64 state advanced one lane: xoshiro256 is linear over GF(2)
    (Blackman and Vigna, ACM TOMS 2021), so it is the XOR of the jump table's
    columns for its set bits, read from bytes in little-endian order."""
    bits = np.unpackbits(state.astype("<u8").view(np.uint8), bitorder="little")
    return np.bitwise_xor.reduce(_jump_table().compress(bits, axis=1), axis=1)


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

    def _next_u64_array(self, n: int) -> np.ndarray:
        """``n`` outputs of :meth:`next_u64` as uint64, with the same final state.

        The state steps in one loop, or from ``_LANES_FROM`` draws in lanes of
        256 steps started by :func:`_jump`; the scrambler then runs over each
        step's ``s1`` in wrapping uint64.
        """
        if n < _LANES_FROM:
            seen = array.array("Q", [0]) * n
            self._s = _xoshiro_steps(self._s, seen)
        else:
            starts = np.empty((4, n // _LANE + 1), dtype=np.uint64)
            starts[:, 0] = self._s
            for lane in range(1, starts.shape[1]):
                starts[:, lane] = _jump(starts[:, lane - 1])
            self._s = _xoshiro_steps([int(w) for w in starts[:, -1]], [0] * (n % _LANE))
            seen = np.empty((starts.shape[1], _LANE), dtype=np.uint64)
            _xoshiro_steps(starts, seen.T)
            seen = seen.reshape(-1)[:n]
        x = np.asarray(seen, dtype=np.uint64) * 5
        return ((x << 7) | (x >> 57)) * 9

    def uniform_array(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``n`` draws of :meth:`uniform` as a float64 array, bit-identical to
        ``n`` sequential ``uniform(low, high)`` calls, with the same final state."""
        return low + (high - low) * ((self._next_u64_array(n) >> 11) * 2.0 ** -53)

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
        """In-place Fisher-Yates shuffle: from the last item down to the
        second, item i swaps with item ``randrange(i + 1)``.

        The ``len(items) - 1`` words are drawn at once. If one of them falls in
        :meth:`randrange`'s rejection zone, which would take a redraw, the
        shuffle starts again from the saved state one draw at a time.
        """
        saved = self._s
        bounds = np.arange(len(items), 1, -1, dtype=np.uint64)
        words = self._next_u64_array(len(bounds))
        # a word is rejected when it is at least 2**64 - 2**64 % bound
        if np.any(words + (0 - bounds) % bounds < words):
            self._s = saved
            picks = [self.randrange(i + 1) for i in range(len(items) - 1, 0, -1)]
        else:
            picks = (words % bounds).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]
