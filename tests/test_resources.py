"""Utilization curve shape, ordering, and bottleneck tests."""

import math
import random

import pytest

from sdnmanet.resources import (
    RESOURCE_KINDS,
    ResourceCurveParams,
    first_bottleneck,
    utilization,
)

DEFAULTS = ResourceCurveParams()


def test_zero_nodes_zero_utilization():
    for kind in RESOURCE_KINDS:
        assert utilization(kind, 0, DEFAULTS) == 0.0


def test_saturation_point_reads_exactly_100():
    assert utilization("cpu", 180, DEFAULTS) == 100.0
    assert utilization("memory", 330, DEFAULTS) == 100.0


def test_cpu_quarter_at_half_saturation():
    assert utilization("cpu", 90, DEFAULTS) == pytest.approx(25.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        utilization("gpu", 10, DEFAULTS)


def test_utilization_monotone_in_n():
    for kind in RESOURCE_KINDS:
        previous = -1.0
        for n in range(0, 400, 5):
            value = utilization(kind, n, DEFAULTS)
            assert value >= previous
            previous = value


def test_curves_keep_cpu_mem_net_storage_order_below_saturation():
    for n in range(1, 181):
        cpu = utilization("cpu", n, DEFAULTS)
        mem = utilization("memory", n, DEFAULTS)
        net = utilization("network", n, DEFAULTS)
        sto = utilization("storage", n, DEFAULTS)
        assert cpu >= mem >= net >= sto, f"ordering breaks at n={n}"


def test_cpu_memory_convex_storage_concave_below_saturation():
    def second_differences(kind, upper):
        values = [utilization(kind, n, DEFAULTS) for n in range(1, upper)]
        return [c - 2 * b + a for a, b, c in zip(values, values[1:], values[2:])]

    assert all(d > 0 for d in second_differences("cpu", 180))
    assert all(d > 0 for d in second_differences("memory", 180))
    assert all(d < 0 for d in second_differences("storage", 180))


def test_curves_never_oscillate():
    for kind in RESOURCE_KINDS:
        values = [utilization(kind, n, DEFAULTS) for n in range(0, 500, 2)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d >= 0 for d in diffs)


def test_first_bottleneck_is_cpu_at_180():
    assert first_bottleneck(DEFAULTS, 400) == ("cpu", 180)


def test_first_bottleneck_sentinel_when_out_of_reach():
    assert first_bottleneck(DEFAULTS, 10) is None


def test_first_bottleneck_follows_smallest_saturation():
    rng = random.Random(42)
    for _ in range(50):
        alphas = [rng.uniform(0.3, 3.0) for _ in range(4)]
        sats = rng.sample(range(50, 500), 4)
        params = ResourceCurveParams(
            cpu_alpha=alphas[0], cpu_saturation_n=float(sats[0]),
            memory_alpha=alphas[1], memory_saturation_n=float(sats[1]),
            network_alpha=alphas[2], network_saturation_n=float(sats[2]),
            storage_alpha=alphas[3], storage_saturation_n=float(sats[3]),
        )
        result = first_bottleneck(params, 600)
        assert result is not None
        kind, n = result
        smallest = min(sats)
        assert params.saturation_n(kind) == float(smallest)
        assert n == smallest


def test_params_reject_nonpositive_values():
    with pytest.raises(ValueError):
        ResourceCurveParams(cpu_alpha=0.0)
    with pytest.raises(ValueError):
        ResourceCurveParams(storage_saturation_n=-5.0)


@pytest.mark.parametrize("name", [f"{kind}_{part}" for kind in RESOURCE_KINDS
                                  for part in ("alpha", "saturation_n")])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_curve_params_reject_non_finite_values(name, bad):
    # A NaN alpha fails no sign check, and utilization("cpu", 10, ...) would read 100.0.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ResourceCurveParams(**{name: bad})
