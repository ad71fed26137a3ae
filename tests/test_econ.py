"""CAPEX/OPEX, crossover, efficiency, allocation, and risk tests."""

import dataclasses
import math
import random

import pytest

from sdnmanet.econ import (
    AllocationState,
    CostParams,
    EfficiencyParams,
    RiskProfile,
    allocation_cost,
    balance_allocation,
    capex_sdn,
    capex_traditional,
    crossover_n,
    efficiency,
    opex_sdn,
    opex_traditional,
    security_risk,
)


def closed_form_crossover(params: CostParams, max_n: int = 1_000_000):
    """Oracle: ceil(fixed-cost gap / per-node saving) from the linear totals."""
    per_node_trad = (
        params.node_hw_traditional + params.node_sw_traditional
        + params.node_maint_traditional + params.node_monitor_traditional
        + params.node_config_traditional
    )
    per_node_sdn = params.node_hw_sdn + params.node_maint_sdn
    fixed_gap = (
        params.controller_capex + params.controller_maint
        + params.controller_config + params.controller_monitor
    )
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


def test_per_node_override_map():
    params = CostParams(node_hw_traditional=100.0, node_sw_traditional=0.0)
    golden = CostParams(node_hw_traditional=500.0, node_sw_traditional=0.0)
    assert capex_traditional(3, params, per_node={1: golden}) == 100.0 + 500.0 + 100.0


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


# ---------------------------------------------------------------- efficiency

def test_efficiency_values():
    assert efficiency(EfficiencyParams(80.0, 100.0, 1.25)) == pytest.approx(1.0)
    assert efficiency(EfficiencyParams(50.0, 100.0, 1.2)) == pytest.approx(0.6)
    assert efficiency(EfficiencyParams(100.0, 100.0, 1.2)) == pytest.approx(1.2)


def test_efficiency_exceeds_raw_ratio():
    params = EfficiencyParams(50.0, 100.0, 1.2)
    assert efficiency(params) > params.useful_data / params.total_bandwidth


def test_efficiency_rejects_eta_at_or_below_one():
    with pytest.raises(ValueError):
        EfficiencyParams(50.0, 100.0, 1.0)
    with pytest.raises(ValueError):
        EfficiencyParams(50.0, 100.0, 0.9)


def test_efficiency_rejects_useful_beyond_total():
    with pytest.raises(ValueError):
        EfficiencyParams(101.0, 100.0, 1.2)


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


def test_balance_allocation_grants_feasible_demands_verbatim():
    state = balance_allocation([10.0, 20.0], [1.0, 2.0], (100.0, 10.0))
    assert state.bandwidth_alloc == (10.0, 20.0)
    assert state.power_alloc == (1.0, 2.0)


def test_balance_allocation_halves_double_demands():
    state = balance_allocation([100.0, 100.0], [40.0, 40.0], (100.0, 40.0))
    assert state.bandwidth_alloc == (50.0, 50.0)
    assert state.power_alloc == (20.0, 20.0)


def test_balance_allocation_cost_never_exceeds_two():
    rng = random.Random(88)
    for _ in range(200):
        count = rng.randint(1, 12)
        bw = [rng.uniform(0, 500) for _ in range(count)]
        pw = [rng.uniform(0, 50) for _ in range(count)]
        state = balance_allocation(bw, pw, (rng.uniform(1, 800), rng.uniform(1, 80)))
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


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostParams)])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_cost_params_reject_non_finite_values(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CostParams(**{name: bad})
