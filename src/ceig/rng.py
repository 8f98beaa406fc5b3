"""Deterministic 64-bit PRNG used everywhere randomness is needed.

The generator is splitmix64 (Vigna's mixer over a Weyl sequence with
increment 0x9E3779B97F4A7C15). It is implemented here in pure Python so
that streams are bit-identical across platforms and interpreter
versions. Uniforms take the top 53 bits of a draw; Gaussians come from
Box-Muller on two uniforms.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(seed: int, *indices: int) -> int:
    """Mix (seed, i1, i2, ...) into a sub-stream seed.

    Each index is avalanched before folding, so neighbouring cells
    (e.g. trial 1 vs trial 2) get unrelated streams, and appending new
    indices never disturbs streams derived from shorter prefixes.
    """
    h = seed & _MASK
    for ix in indices:
        h = mix64(h ^ mix64((ix + 1) * _GOLDEN))
    return h


class SplitMix64:
    """Sequential splitmix64 stream with uniform and Gaussian draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1), 53 usable bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, count: int) -> list[float]:
        return [self.uniform() for _ in range(count)]

    def gaussian(self) -> float:
        """Standard normal via Box-Muller; the paired draw is cached."""
        if self._spare_gauss is not None:
            g = self._spare_gauss
            self._spare_gauss = None
            return g
        # u1 in (0, 1] so the log is finite.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_gauss = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def gaussians(self, count: int) -> list[float]:
        return [self.gaussian() for _ in range(count)]
