"""Seeded pseudorandom source for simulation paths.

Standard normal variates by the Box-Muller transform (pairs from two
uniforms, cosine first, zero u1 rejected) over SplitMix (Steele, Lea &
Flood, OOPSLA 2014) with 64-bit state. SplitMix is counter-based: uniform k
is mix(seed + k gamma), so a draw computes its uniforms as one block.
Implemented in-repo so simulated paths are bit-reproducible across platforms
and library versions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

SEED_LIMIT = 2**64  # seeds are exactly the 64-bit SplitMix states
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def check_seed(seed) -> int:
    """seed as an int: the one seed rule, an integer in [0, 2**64) (a bool is not)."""
    integral = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integral and 0 <= seed < SEED_LIMIT):
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


class GaussianStream:
    """Standard normal draws over a seeded SplitMix stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_seed(seed)

    def _uniforms(self, count: int) -> np.ndarray:
        """The next count 53-bit uniforms in [0, 1): output k is mix(state + k gamma)."""
        z = np.uint64(self._state) + np.uint64(_GAMMA) * np.arange(1, count + 1, dtype=np.uint64)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * _INV53

    def draw(self, count: int) -> np.ndarray:
        """The next count normals, from one block of uniforms.

        Each call starts a new Box-Muller pair and continues the uniform
        stream; an odd count drops its last sine.
        """
        pairs = (count + 1) // 2
        u = self._uniforms(2 * pairs)
        while not u[::2].all():  # skip a u1 == 0 (log guard); later pairs shift by one
            j = 2 * int(np.argmin(u[::2]))
            u = np.concatenate((u[:j], u[j + 1 :], self._uniforms(1)))
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u[::2].tolist()), float, pairs))
        angle = (_TWO_PI * u[1::2]).tolist()
        normals = np.empty(2 * pairs)
        normals[::2] = radius * np.fromiter(map(math.cos, angle), float, pairs)
        normals[1::2] = radius * np.fromiter(map(math.sin, angle), float, pairs)
        return normals[:count]
