"""CAPEX/OPEX, crossover, allocation, and risk tests."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdnmanet.econ import (
    CROSSOVER_MAX_N,
    AllocationState,
    CostParams,
    RiskProfile,
    allocation_cost,
    capex_sdn,
    capex_traditional,
    cost_reductions,
    crossover_n,
    opex_sdn,
    opex_traditional,
    security_risk,
)


def cost_sums(params: CostParams):
    """Per-node traditional and SDN costs and the SDN fixed cost, in the
    number type of the fields of ``params``."""
    per_node_trad = (
        params.node_hw_traditional + params.node_sw_traditional
        + params.node_maint_traditional + params.node_monitor_traditional
        + params.node_config_traditional
    )
    per_node_sdn = params.node_hw_sdn + params.node_maint_sdn
    fixed_sdn = (
        params.controller_capex + params.controller_maint
        + params.controller_config + params.controller_monitor
    )
    return per_node_trad, per_node_sdn, fixed_sdn


def closed_form_crossover(params: CostParams, max_n: int = 1_000_000):
    """Oracle: ceil(fixed-cost gap / per-node saving) from the linear totals."""
    per_node_trad, per_node_sdn, fixed_gap = cost_sums(params)
    saving = per_node_trad - per_node_sdn
    if saving <= 0:
        return 1 if fixed_gap <= saving else None
    n = max(1, math.ceil(fixed_gap / saving - 1e-12))
    return n if n <= max_n else None


# -------------------------------------------------------------------- capex

def test_capex_traditional_small():
    params = CostParams(node_hw_traditional=100.0, node_sw_traditional=50.0)
    assert capex_traditional(3, params) == 450.0
    assert capex_traditional(1, params) == 150.0


def test_capex_traditional_default_reference():
    assert capex_traditional(50, CostParams()) == 6000.0  # 5000 hw + 1000 sw


def test_capex_sdn_small():
    params = CostParams(node_hw_sdn=60.0, controller_capex=750.0)
    assert capex_sdn(3, params) == 930.0


def test_capex_sdn_default_reference_and_hardware_ratio():
    params = CostParams()
    assert capex_sdn(50, params) == 3750.0
    hw_traditional = 50 * params.node_hw_traditional
    assert capex_sdn(50, params) / hw_traditional == 0.75  # 25% hardware saving


def test_capex_parity_when_controller_free():
    params = CostParams(node_hw_sdn=100.0, controller_capex=0.0)
    assert capex_sdn(7, params) == 7 * 100.0


def test_capex_rejects_zero_nodes():
    with pytest.raises(ValueError):
        capex_traditional(0, CostParams())
    with pytest.raises(ValueError):
        capex_sdn(0, CostParams())


def test_capex_linear_second_differences_vanish():
    params = CostParams()
    for fn in (capex_traditional, capex_sdn, opex_traditional, opex_sdn):
        values = [fn(n, params) for n in range(1, 30)]
        for a, b, c in zip(values, values[1:], values[2:]):
            assert c - 2 * b + a == 0.0


def test_costs_at_ten_million_nodes_match_the_closed_forms():
    n, p = 10**7, CostParams(node_hw_traditional=100.5, node_sw_traditional=0.25, node_hw_sdn=60.125)
    assert capex_traditional(n, p) == n * (p.node_hw_traditional + p.node_sw_traditional) == 1_007_500_000.0
    assert capex_sdn(n, p) == n * p.node_hw_sdn + p.controller_capex == 601_250_750.0
    assert opex_traditional(n, p) == n * 30.0 == 300_000_000.0
    assert opex_sdn(n, p) == 300.0 + n * p.node_maint_sdn == 150_000_300.0


# --------------------------------------------------------------------- opex

def test_opex_traditional_small():
    params = CostParams(node_maint_traditional=10.0, node_monitor_traditional=5.0,
                        node_config_traditional=5.0)
    assert opex_traditional(2, params) == 40.0


def test_opex_defaults_reference_ratio():
    params = CostParams()
    assert opex_traditional(50, params) == 1500.0
    assert opex_sdn(50, params) == 1050.0
    assert opex_sdn(50, params) / opex_traditional(50, params) == 0.70


def test_opex_sdn_small():
    params = CostParams(controller_maint=100.0, controller_config=50.0,
                        controller_monitor=50.0, node_maint_sdn=5.0)
    assert opex_sdn(2, params) == 210.0


def test_opex_sdn_slope_is_node_maint():
    params = CostParams()
    assert opex_sdn(101, params) - opex_sdn(100, params) == params.node_maint_sdn


# --------------------------------------------------------------- reductions

def test_cost_reductions_over_a_zero_traditional_cost_are_nan():
    hardware, opex = cost_reductions(50, CostParams(node_hw_traditional=0.0))
    assert math.isnan(hardware) and opex == pytest.approx(0.30)
    free_ops = CostParams(node_maint_traditional=0.0, node_monitor_traditional=0.0,
                          node_config_traditional=0.0)
    hardware, opex = cost_reductions(50, free_ops)
    assert hardware == pytest.approx(0.25) and math.isnan(opex)


def test_ranking_invariant_under_currency_rescale():
    rng = random.Random(12)
    for _ in range(100):
        params = CostParams(
            node_hw_traditional=rng.uniform(1, 200), node_sw_traditional=rng.uniform(0, 50),
            node_hw_sdn=rng.uniform(1, 200), controller_capex=rng.uniform(0, 2000),
        )
        scale = rng.uniform(0.01, 100.0)
        scaled = CostParams(
            node_hw_traditional=params.node_hw_traditional * scale,
            node_sw_traditional=params.node_sw_traditional * scale,
            node_hw_sdn=params.node_hw_sdn * scale,
            controller_capex=params.controller_capex * scale,
        )
        for n in (1, 10, 100):
            gap = capex_sdn(n, params) - capex_traditional(n, params)
            scaled_gap = capex_sdn(n, scaled) - capex_traditional(n, scaled)
            assert (gap > 0) == (scaled_gap > 0) or gap == scaled_gap == 0.0


# ----------------------------------------------------------------- crossover

def test_crossover_immediate_when_nodes_cheaper_and_no_controller():
    params = CostParams(node_hw_sdn=10.0, controller_capex=0.0,
                        controller_maint=0.0, controller_config=0.0,
                        controller_monitor=0.0, node_maint_sdn=0.0)
    assert crossover_n(params) == 1


def test_crossover_default_parameters():
    # totals: traditional 150/node vs sdn 75/node + 1050 fixed -> n = 14
    assert crossover_n(CostParams()) == 14
    assert closed_form_crossover(CostParams()) == 14


def test_crossover_never_when_no_per_node_saving():
    params = CostParams(node_hw_sdn=130.0, node_maint_sdn=30.0, controller_capex=100.0)
    assert crossover_n(params) is None


def test_crossover_matches_closed_form_on_random_draws():
    rng = random.Random(2024)
    for _ in range(1000):
        params = CostParams(
            node_hw_traditional=rng.uniform(10, 300),
            node_sw_traditional=rng.uniform(0, 100),
            node_hw_sdn=rng.uniform(10, 300),
            controller_capex=rng.uniform(0, 5000),
            node_maint_traditional=rng.uniform(0, 50),
            node_monitor_traditional=rng.uniform(0, 50),
            node_config_traditional=rng.uniform(0, 50),
            controller_maint=rng.uniform(0, 500),
            controller_config=rng.uniform(0, 500),
            controller_monitor=rng.uniform(0, 500),
            node_maint_sdn=rng.uniform(0, 80),
        )
        assert crossover_n(params) == closed_form_crossover(params)


def exact_gap(params: CostParams, n: int) -> Fraction:
    """Oracle: total SDN minus total traditional cost at ``n`` nodes, exactly."""
    exact = CostParams(**{f.name: Fraction(getattr(params, f.name)) for f in dataclasses.fields(params)})
    per_node_trad, per_node_sdn, fixed_sdn = cost_sums(exact)
    return fixed_sdn + n * (per_node_sdn - per_node_trad)


def with_sums(per_node_trad, per_node_sdn, fixed_sdn):
    """CostParams whose three sums are exactly the given amounts."""
    zeros = dict.fromkeys((f.name for f in dataclasses.fields(CostParams)), 0.0)
    return CostParams(**{**zeros, "node_hw_traditional": per_node_trad,
                         "node_hw_sdn": per_node_sdn, "controller_capex": fixed_sdn})


def _tiny_saving(per_node_trad, ulps, quotient):
    saving = ulps * math.ulp(per_node_trad)
    return with_sums(per_node_trad, per_node_trad - saving, quotient * saving)


# A saving of a few units in the last place, with the break-even quotient
# either small or near CROSSOVER_MAX_N, where float totals can miss the exact answer.
_TINY_SAVINGS = st.builds(_tiny_saving, st.floats(1.0, 1e4), st.integers(1, 1000),
                          st.floats(0.0, 3e3) | st.floats(0.0, 3e3) | st.floats(0.99e6, 1.01e6))
_ORDINARY = st.builds(CostParams, **{f.name: st.floats(0.0, 500.0)
                                     for f in dataclasses.fields(CostParams)})


@settings(max_examples=120, deadline=None)
@given(_TINY_SAVINGS | _ORDINARY)
@example(CostParams(node_hw_sdn=134.9999))  # saving 1e-4 per node: never within the cap
@example(with_sums(150.0, 150.0 - 2**-45, 1e-8))
@example(CostParams(node_hw_sdn=135.0))  # no per-node saving at all: never
@example(with_sums(150.0, 149.0, 1e6))  # breaks even exactly at the cap
def test_crossover_is_the_first_exact_crossing(params):
    n = crossover_n(params)
    if n is None:
        # The gap is linear in n, so positive at both ends means positive throughout.
        assert exact_gap(params, 1) > 0 and exact_gap(params, CROSSOVER_MAX_N) > 0
    else:
        assert 1 <= n <= CROSSOVER_MAX_N
        assert exact_gap(params, n) <= 0
        assert n == 1 or exact_gap(params, n - 1) > 0


# ---------------------------------------------------------------- allocation

def test_allocation_cost_half_each():
    state = AllocationState((50.0, 50.0), (10.0, 10.0), 200.0, 40.0)
    assert allocation_cost(state) == pytest.approx(1.0)


def test_allocation_cost_full_allocation_is_two():
    state = AllocationState((50.0, 50.0), (20.0, 20.0), 100.0, 40.0)
    assert allocation_cost(state) == pytest.approx(2.0, abs=1e-12)


def test_allocation_cost_empty_is_zero():
    assert allocation_cost(AllocationState((), (), 100.0, 40.0)) == 0.0


def test_allocation_cost_zero_total_with_nonzero_alloc_raises():
    state = AllocationState((0.0,), (0.0,), 0.0, 0.0)
    assert allocation_cost(state) == 0.0
    bad = AllocationState.__new__(AllocationState)  # bypass init checks
    object.__setattr__(bad, "bandwidth_alloc", (1.0,))
    object.__setattr__(bad, "power_alloc", (0.0,))
    object.__setattr__(bad, "bandwidth_total", 0.0)
    object.__setattr__(bad, "power_total", 0.0)
    with pytest.raises(ValueError):
        allocation_cost(bad)


def test_allocation_cost_never_exceeds_two():
    rng = random.Random(88)
    for _ in range(200):
        count = rng.randint(1, 12)
        bw = [rng.uniform(0, 500) for _ in range(count)]
        pw = [rng.uniform(0, 50) for _ in range(count)]
        bw_total, pw_total = rng.uniform(1, 800), rng.uniform(1, 80)
        # Oversubscribed demands are scaled by one common factor to fit the total.
        bw_scale, pw_scale = min(1.0, bw_total / sum(bw)), min(1.0, pw_total / sum(pw))
        state = AllocationState(tuple(d * bw_scale for d in bw), tuple(d * pw_scale for d in pw),
                                bw_total, pw_total)
        assert allocation_cost(state) <= 2.0 + 1e-9


# ---------------------------------------------------------------------- risk

def test_security_risk_values():
    assert security_risk(RiskProfile(((0.5, 10.0),))) == 5.0
    assert security_risk(RiskProfile(())) == 0.0
    assert security_risk(RiskProfile(((0.1, 100.0), (0.2, 50.0)))) == pytest.approx(20.0)


def test_security_risk_rejects_bad_probability():
    with pytest.raises(ValueError):
        RiskProfile(((1.5, 10.0),))
    with pytest.raises(ValueError):
        RiskProfile(((-0.1, 10.0),))


def test_security_risk_additive_over_concatenation():
    rng = random.Random(7)
    for _ in range(100):
        first = tuple((rng.random(), rng.uniform(0, 100)) for _ in range(rng.randint(0, 8)))
        second = tuple((rng.random(), rng.uniform(0, 100)) for _ in range(rng.randint(0, 8)))
        combined = security_risk(RiskProfile(first + second))
        split = security_risk(RiskProfile(first)) + security_risk(RiskProfile(second))
        assert combined == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_security_risk_scales_with_impact():
    rng = random.Random(8)
    for _ in range(100):
        vulns = tuple((rng.random(), rng.uniform(0, 100)) for _ in range(rng.randint(1, 8)))
        k = rng.uniform(0.1, 10.0)
        scaled = tuple((p, i * k) for p, i in vulns)
        assert security_risk(RiskProfile(scaled)) == pytest.approx(
            k * security_risk(RiskProfile(vulns)), rel=1e-12
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_risk_profile_rejects_non_finite_values(bad):
    # A NaN impact used to make security_risk return nan.
    with pytest.raises(ValueError, match="^impact .* must be finite$"):
        RiskProfile(((0.1, 2.0), (0.5, bad)))
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        RiskProfile(((bad, 2.0),))
