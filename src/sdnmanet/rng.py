"""Deterministic randomness helpers.

All stochastic behavior in this package flows through ``random.Random``
(the Mersenne Twister MT19937), seeded explicitly at every call site.
MT19937's ``random()`` output for a given seed is identical on every
platform and CPython version, so a scenario seed fully determines every
topology, mobility trace, and queue realization, bit for bit.

Only ``random()`` is consumed directly; uniform draws, index draws and
Poisson arrival times are derived from it here so the draw sequence never
depends on library internals that carry weaker stability guarantees.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *salts: int) -> int:
    """Mix a base seed with integer salts into an independent stream seed.

    splitmix64-style finalizer over pure 64-bit integer arithmetic; used to
    give each sub-simulation (topology build, mobility step, flow sampling,
    queue trace) its own decorrelated seed from one scenario seed.
    """
    h = seed & _MASK64
    for salt in salts:
        h = (h + 0x9E3779B97F4A7C15 + (salt & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def uniform_in(rng: random.Random, low: float, high: float) -> float:
    """One uniform draw in [low, high)."""
    return low + (high - low) * rng.random()


def arrival_times(rng: random.Random, rate: float, horizon: float) -> Iterator[float]:
    """Event times up to `horizon` of a Poisson process of `rate`/s, in order;
    each gap is one exponential draw. A rate of zero yields nothing."""
    if rate > 0:
        t = -0.0  # -0.0 + x is x for every float, so the first time is the first gap
        while (t := t + -math.log(1.0 - rng.random()) / rate) <= horizon:
            yield t


def rand_index(rng: random.Random, n: int) -> int:
    """One uniform index in 0..n-1."""
    i = int(rng.random() * n)
    return n - 1 if i >= n else i
