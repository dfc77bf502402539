"""SplitMix64 PRNG with fixed-order derived draws.

SplitMix64 is trivially portable and bit-exact across platforms, which keeps
seeded runs reproducible byte for byte. Every derived draw (uniform,
Gaussian, Poisson, bounded integer) consumes a documented number of raw
64-bit outputs so that draw sequences stay aligned across implementations.
"""

from __future__ import annotations

import math
from statistics import NormalDist

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_STD_NORMAL = NormalDist()
_BELOW_ONE = math.nextafter(1.0, 0.0)


def frame_seed(seed: int, frame_index: int) -> int:
    """Per-frame stream seed: ``seed XOR (frame_index * golden gamma)`` mod 2^64."""
    return (seed ^ ((frame_index * GOLDEN_GAMMA) & MASK64)) & MASK64


class SplitMix64:
    """The SplitMix64 generator (Steele, Lea & Flood mixing constants)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in the open interval (0, 1); one raw draw.

        Maps the top 53 bits k to (k + 0.5) * 2^-53 so the endpoints are
        never produced, keeping inverse-CDF transforms finite. For the top
        k = 2^53 - 1 that product rounds to 1.0, so it is held to the largest
        double below 1; every other k already maps below it.
        """
        return min(((self.next_uint64() >> 11) + 0.5) * 2.0**-53, _BELOW_ONE)

    def next_below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n); one or more raw draws (rejection)."""
        if n < 1:
            raise ValueError(f"bound must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_uint64()
            if r < limit:
                return r % n

    def gaussian(self) -> float:
        """Standard normal via inverse CDF of a single uniform draw."""
        return _STD_NORMAL.inv_cdf(self.next_float())

    def poisson(self, mean: float) -> int:
        """Poisson sample via CDF inversion of a single uniform draw.

        The rounded CDF sum can converge just below 1 (to 1 - 2^-52 for a mean
        of 0.1), short of a draw near 1, so the inversion also ends where the
        next term no longer changes the sum: that draw lies in the far tail.
        """
        if mean < 0.0:
            raise ValueError(f"Poisson mean must be non-negative, got {mean}")
        if mean == 0.0:
            return 0
        u = self.next_float()
        p = math.exp(-mean)
        cumulative = p
        k = 0
        while u > cumulative:
            k += 1
            p *= mean / k
            if cumulative + p == cumulative:
                break
            cumulative += p
        return k

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle; n-1 bounded-integer draws."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
