"""Seeded pseudorandom source for simulation paths.

A SplitMix64 stream underneath, with standard normal variates produced by
the Box-Muller transform (pairs from two uniforms, zero uniforms rejected,
the spare variate cached). Implemented in-repo so simulated paths are
bit-reproducible across platforms and library versions.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


class SplitMix64:
    """Counter-based 64-bit generator (state += golden gamma, then mix)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """53-bit uniform in [0, 1)."""
        return (self.next_uint64() >> 11) * _INV53

    def next_uniforms(self, count: int) -> np.ndarray:
        """The next count uniforms as one array: output k is mix(state + k gamma)."""
        z = np.uint64(self._state) + np.uint64(_GAMMA) * np.arange(1, count + 1, dtype=np.uint64)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * _INV53


class GaussianStream:
    """Standard normal draws over a seeded SplitMix64 stream."""

    __slots__ = ("_uniforms", "_spare")

    def __init__(self, seed: int):
        self._uniforms = SplitMix64(seed)
        self._spare = None

    def next_normal(self) -> float:
        if self._spare is not None:
            spare, self._spare = self._spare, None
            return spare
        u1 = self._uniforms.next_uniform()
        while u1 == 0.0:  # log(0) guard; probability 2^-53 per draw
            u1 = self._uniforms.next_uniform()
        u2 = self._uniforms.next_uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = _TWO_PI * u2
        self._spare = radius * math.sin(angle)
        return radius * math.cos(angle)

    def draw(self, count: int) -> np.ndarray:
        """The next count normals, bit for bit those of next_normal, from one block of uniforms."""
        head = [self._spare] if count and self._spare is not None else []
        pairs = (count - len(head) + 1) // 2
        u = self._uniforms.next_uniforms(2 * pairs)
        while not u[::2].all():  # as in next_normal, skip a u1 == 0; later pairs shift by one
            j = 2 * int(np.argmin(u[::2]))
            u = np.concatenate((u[:j], u[j + 1 :], self._uniforms.next_uniforms(1)))
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u[::2].tolist()), float, pairs))
        angle = (_TWO_PI * u[1::2]).tolist()
        normals = np.empty(2 * pairs)
        normals[::2] = radius * np.fromiter(map(math.cos, angle), float, pairs)
        normals[1::2] = radius * np.fromiter(map(math.sin, angle), float, pairs)
        if count:  # the old spare went into head; keep the new one, if any
            self._spare = float(normals[-1]) if (count - len(head)) % 2 else None
        return np.concatenate((head, normals[: count - len(head)]))
