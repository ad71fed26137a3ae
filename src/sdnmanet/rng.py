"""Deterministic randomness helpers.

All stochastic behavior in this package flows through ``random.Random``
(the Mersenne Twister MT19937), seeded explicitly at every call site.
MT19937's ``random()`` output for a given seed is identical on every
platform and CPython version, so a scenario seed fully determines every
topology, mobility trace, and queue realization, bit for bit.

Only ``random()`` is consumed directly; index draws, Poisson arrival
times and Poisson counts are derived from it here, and uniform draws are
``low + (high - low) * random()`` where they are made, so the draw
sequence never depends on library internals with weaker stability guarantees.
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


def arrival_times(rng: random.Random, rate: float, horizon: float) -> Iterator[float]:
    """Event times up to `horizon` of a Poisson process of `rate`/s, in order;
    each gap is one exponential draw. A rate of zero yields nothing."""
    if rate > 0:
        t = -0.0  # -0.0 + x is x for every float, so the first time is the first gap
        while (t := t + -math.log(1.0 - rng.random()) / rate) <= horizon:
            yield t


def poisson(rng: random.Random, mean: float) -> int:
    """One Poisson(`mean`) count: inversion below mean 10, else Hormann's
    transformed rejection with squeeze (PTRS, Insur. Math. Econ. 12, 1993)."""
    if mean < 10.0:
        k, p, u = 0, math.exp(-mean), rng.random()
        total = p
        while u > total and p > 0.0:  # p underflows only if rounding left total short of u
            k += 1
            p *= mean / k
            total += p
        return k
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    log_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.random() - 0.5
        v = 1.0 - rng.random()  # in (0, 1], so log(v) is finite
        us = 0.5 - abs(u)
        if us < 0.013 and v > us:  # also rejects us == 0
            continue
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k >= 0 and (math.log(v) + log_alpha - math.log(a / (us * us) + b)
                       <= -mean + k * log_mean - math.lgamma(k + 1)):
            return k


def rand_index(rng: random.Random, n: int) -> int:
    """One uniform index in 0..n-1."""
    i = int(rng.random() * n)
    return n - 1 if i >= n else i
