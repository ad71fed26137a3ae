"""Poisson count sampler, seed derivation and the package's random-stream contract."""

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnmanet.rng import derive_seed, poisson

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdnmanet"

# Every statistical check below is a fixed-seed test at the stated false-alarm
# rate alpha: a correct sampler fails it for at most that share of seeds.
ALPHA = 1e-4
Z_TWO_SIDED = 3.8906  # standard normal quantile 1 - ALPHA / 2
DRAWS = 20_000


def chi2_sf(x, df):
    """Survival function of the chi-square distribution: the regularized
    upper incomplete gamma Q(df / 2, x / 2), by series or continued fraction."""
    a, z = df / 2.0, x / 2.0
    if z <= 0.0:
        return 1.0
    log_prefix = a * math.log(z) - z - math.lgamma(a)
    if z < a + 1.0:  # series for P, then Q = 1 - P
        term = total = 1.0 / a
        k = a
        while term > total * 1e-15:
            k += 1.0
            term *= z / k
            total += term
        return 1.0 - total * math.exp(log_prefix)
    # Lentz's continued fraction for Q
    b = z + 1.0 - a
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1e-300 if abs(d) < 1e-300 else d
        c = b + an / c
        c = 1e-300 if abs(c) < 1e-300 else c
        d = 1.0 / d
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return math.exp(log_prefix) * h


def test_chi2_sf_matches_closed_forms():
    # df = 2: exp(-x / 2); df = 1: erfc(sqrt(x / 2)).
    for x in (0.1, 1.0, 3.0, 10.0, 40.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-9)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-9)
    assert chi2_sf(124.342, 100) == pytest.approx(0.05, rel=1e-3)  # tabulated 95th percentile


def poisson_bins(mean, draws):
    """Consecutive count ranges, each expecting at least 5 of `draws` (Cochran's
    rule), that cover every count: [first, last, probability]."""
    spread = 10.0 * math.sqrt(mean) + 20.0
    lo, hi = max(0, math.floor(mean - spread)), math.ceil(mean + spread)
    log_mean = math.log(mean)
    pmf = [math.exp(k * log_mean - mean - math.lgamma(k + 1)) for k in range(lo, hi + 1)]
    target = max(5.0 / draws, 1.0 / 60)  # about 60 bins at most
    bins, start, mass = [], lo, 0.0
    for k, p in zip(range(lo, hi + 1), pmf):
        mass += p
        if mass >= target:
            bins.append([start, k, mass])
            start, mass = k + 1, 0.0
    bins[-1][1], bins[-1][2] = math.inf, bins[-1][2] + mass
    bins[0][0] = 0  # counts more than 10 sd out carry under 1e-20 of the mass
    return bins


@pytest.mark.parametrize("mean", [0.5, 9.99, 10.0, 100.0, 1e4, 1e6])
def test_poisson_moments_and_goodness_of_fit(mean):
    rng = random.Random(round(mean * 1000) + 1)
    draws = [poisson(rng, mean) for _ in range(DRAWS)]
    assert all(isinstance(k, int) and k >= 0 for k in draws)

    # Mean and variance: two-sided z-tests at ALPHA each. A Poisson's variance
    # is its mean; the sample variance has variance (mean + 2 mean^2) / DRAWS.
    sample_mean = sum(draws) / DRAWS
    sample_var = sum((k - sample_mean) ** 2 for k in draws) / (DRAWS - 1)
    assert abs(sample_mean - mean) <= Z_TWO_SIDED * math.sqrt(mean / DRAWS)
    assert abs(sample_var - mean) <= Z_TWO_SIDED * math.sqrt((mean + 2.0 * mean * mean) / DRAWS)

    # Pearson chi-square goodness of fit against the exact pmf at ALPHA.
    bins = poisson_bins(mean, DRAWS)
    observed = [0] * len(bins)
    firsts = [b[0] for b in bins]
    for k in draws:
        lo, hi = 0, len(bins) - 1
        while lo < hi:  # last bin whose first count is <= k
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if firsts[mid] <= k else (lo, mid - 1)
        observed[lo] += 1
    statistic = sum((o - DRAWS * p) ** 2 / (DRAWS * p) for o, (_, _, p) in zip(observed, bins))
    assert chi2_sf(statistic, len(bins) - 1) > ALPHA, (statistic, len(bins))


def test_poisson_of_mean_zero_is_always_zero():
    # The Poisson(0) law puts all its mass on 0, so its goodness-of-fit test
    # has one bin and no degrees of freedom: every draw must be 0 (alpha = 0).
    rng = random.Random(7)
    assert all(poisson(rng, 0.0) == 0 for _ in range(DRAWS))


@settings(max_examples=200, deadline=None)
@given(mean=st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e8)), seed=st.integers(0, 2**32))
def test_poisson_is_a_count_reproducible_per_seed(mean, seed):
    first = poisson(random.Random(seed), mean)
    assert isinstance(first, int) and first >= 0
    assert first == poisson(random.Random(seed), mean)


def test_poisson_inversion_survives_a_uniform_next_to_one():
    # Rounding can leave the running sum of the pmf a few ulps short of 1.
    class Top(random.Random):
        def random(self):
            return 1.0 - 2.0**-53

    assert poisson(Top(), 9.99) > 20


# ---------------------------------------------------- random-stream contract

#: Public ``random.Random`` methods whose draw sequences CPython does not
#: promise to keep across versions; only ``random()`` is promised.
UNSTABLE_METHODS = frozenset(
    name for name in dir(random.Random)
    if not name.startswith("_") and callable(getattr(random.Random, name)) and name != "random"
)


def unstable_random_uses(source):
    """Calls of any public ``random.Random`` method but ``random()``, calls
    into the ``random`` module's hidden global generator, and from-imports of
    anything from ``random`` but the ``Random`` class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, attr = node.func.value, node.func.attr
            module_call = isinstance(owner, ast.Name) and owner.id == "random" and attr != "Random"
            if attr in UNSTABLE_METHODS or module_call:
                found.append(f"line {node.lineno}: {ast.unparse(node.func)}()")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [f"line {node.lineno}: from random import {a.name}"
                      for a in node.names if a.name != "Random"]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_draws_only_through_random(path):
    # Every stream is derived from random() alone (see sdnmanet.rng), so a
    # seed gives the same topology, mobility and queue on every CPython.
    assert unstable_random_uses(path.read_text()) == []


@pytest.mark.parametrize("line", [
    "rng.uniform(0.0, 1.0)",
    "random.Random(1).expovariate(2.0)",
    "x = random.random()",
    "from random import shuffle",
    "rng.getrandbits(32)",
])
def test_stream_guard_flags_unstable_draws(line):
    assert unstable_random_uses(line)


def test_stream_guard_allows_random_and_the_class():
    assert unstable_random_uses("rng = random.Random(3)\nx = rng.random()\nfrom random import Random") == []


_salts = st.lists(st.integers(-2**70, 2**70), max_size=4)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2**70, 2**70), head=_salts, tail=_salts)
def test_derive_seed_folds_its_salts_one_at_a_time(seed, head, tail):
    # evolve_topology derives the mobility seed once and each step's seed from it.
    assert derive_seed(seed, *head, *tail) == derive_seed(derive_seed(seed, *head), *tail)
