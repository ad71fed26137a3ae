"""Scenario runs, sweep aggregation, and comparison-ratio tests."""

import dataclasses
import math
import random
import re

import pytest

from sdnmanet import controller as ctl
from sdnmanet.controller import fluid_backlog
from sdnmanet.econ import CostParams
from sdnmanet.rng import rand_index
from sdnmanet.simulator import (
    ComparisonRow,
    MetricsReport,
    ScenarioConfig,
    SweepSettings,
    TopologySettings,
    _sample_hops,
    compare,
    pdr_model,
    rediscovery_rate,
    run_scenario,
    sweep,
    throughput_model,
)
from sdnmanet.topology import NoRouteError, generate_erdos_renyi, shortest_path


def small_config(**overrides) -> ScenarioConfig:
    """Default scenario shrunk for unit-test speed."""
    cfg = ScenarioConfig(seeds_per_point=2, flow_samples=10)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def r_squared(xs, ys):
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


# ------------------------------------------------------------------ pdr model

def test_pdr_perfect_without_breaks():
    assert pdr_model(0.0, 500.0) == 1.0


def test_pdr_direct_evaluation():
    assert pdr_model(0.1, 500.0) == pytest.approx(0.95)


def test_pdr_clamps_at_zero():
    assert pdr_model(10.0, 500.0) == 0.0


def test_pdr_better_with_faster_repair():
    for rate in (0.05, 0.2, 0.5):
        fast = pdr_model(rate, 15.0)
        slow = pdr_model(rate, 60.0)
        assert fast >= slow


def test_pdr_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pdr_model(-0.1, 10.0)
    with pytest.raises(ValueError):
        pdr_model(0.1, -10.0)


# ----------------------------------------------------------- throughput model

def test_throughput_zero_load():
    assert throughput_model("traditional", 1000.0, 0.0, 1.0, 1.2) == 0.0


def test_throughput_capacity_bound():
    assert throughput_model("traditional", 1000.0, 2000.0, 1.0, 1.2) == 1000.0


def test_throughput_sdn_uplift_capped_at_capacity():
    uncapped = throughput_model("sdn", 10_000.0, 5000.0, 1.0, 1.2)
    assert uncapped == pytest.approx(6000.0)
    capped = throughput_model("sdn", 5500.0, 5000.0, 1.0, 1.2)
    assert capped == 5500.0


def test_throughput_pdr_thins_delivery():
    assert throughput_model("traditional", 1000.0, 800.0, 0.5, 1.0) == 400.0


# ------------------------------------------------------------------ scenarios

def test_traditional_run_has_no_controller_artifacts():
    cfg = small_config()
    report = run_scenario(cfg, 30, "traditional", seed=7)
    assert report.queue_backlog == 0.0
    assert report.cpu_pct == report.mem_pct == report.net_pct == report.storage_pct == 0.0
    assert report.mode == "traditional"


def test_sdn_run_reports_controller_artifacts():
    cfg = small_config()
    report = run_scenario(cfg, 60, "sdn", seed=7)
    assert report.queue_backlog > 0.0
    assert report.cpu_pct > 0.0
    assert report.latency_max_ms < cfg.controller.latency_threshold_ms


def test_run_scenario_deterministic():
    cfg = small_config()
    first = run_scenario(cfg, 40, "sdn", seed=11)
    second = run_scenario(cfg, 40, "sdn", seed=11)
    assert first == second
    third = run_scenario(cfg, 40, "sdn", seed=12)
    assert first != third


def test_run_scenario_backlog_tracks_fluid_limit():
    cfg = small_config()
    report = run_scenario(cfg, 170, "sdn", seed=3)
    expected = fluid_backlog(170, cfg.controller)
    assert abs(report.queue_backlog - expected) / expected <= 0.02


def test_run_scenario_rejects_bad_mode_and_n():
    cfg = small_config()
    with pytest.raises(ValueError):
        run_scenario(cfg, 0, "sdn", seed=1)
    with pytest.raises(ValueError):
        run_scenario(cfg, 10, "mesh", seed=1)


def test_rediscovery_rate_scales_with_speed_and_size():
    cfg = ScenarioConfig()
    base = rediscovery_rate(cfg, 50)
    assert rediscovery_rate(cfg, 100) > base
    slow = dataclasses.replace(cfg.topology, speed_min_mps=0.5, speed_max_mps=2.0)
    cfg_slow = small_config(topology=slow)
    assert rediscovery_rate(cfg_slow, 50) < base


# --------------------------------------------------------------------- sweeps

def test_default_sweep_points():
    assert ScenarioConfig().sweep_points() == [20, 50, 80, 110, 140, 170, 200]


def test_single_point_sweep():
    cfg = small_config()
    cfg.sweep = dataclasses.replace(cfg.sweep, start=25, end=25, step=30)
    pairs = sweep(cfg)
    assert len(pairs) == 1
    assert pairs[0][0].n == pairs[0][1].n == 25


@pytest.fixture(scope="module")
def small_sweep():
    cfg = ScenarioConfig(seeds_per_point=3, flow_samples=15)
    return cfg, sweep(cfg)


def test_sweep_pairs_ordered_and_labeled(small_sweep):
    cfg, pairs = small_sweep
    assert [t.n for t, _ in pairs] == cfg.sweep_points()
    for trad, sdn in pairs:
        assert trad.mode == "traditional"
        assert sdn.mode == "sdn"
        assert trad.n == sdn.n


def test_sweep_sdn_latency_cap_and_growth(small_sweep):
    _, pairs = small_sweep
    maxima = [sdn.latency_max_ms for _, sdn in pairs]
    assert all(b > a for a, b in zip(maxima, maxima[1:]))
    assert all(m < 30.0 for m in maxima)


def test_sweep_traditional_latency_strictly_increasing(small_sweep):
    _, pairs = small_sweep
    averages = [trad.latency_avg_ms for trad, _ in pairs]
    assert all(b > a for a, b in zip(averages, averages[1:]))


def test_sweep_overhead_dominance(small_sweep):
    _, pairs = small_sweep
    for trad, sdn in pairs:
        assert sdn.control_overhead_bits < trad.control_overhead_bits


def test_sweep_pdr_bounds_and_mode_order(small_sweep):
    _, pairs = small_sweep
    for trad, sdn in pairs:
        assert 0.0 <= trad.pdr <= 1.0
        assert 0.0 <= sdn.pdr <= 1.0
        assert sdn.pdr >= trad.pdr


def test_sweep_queue_backlog_grows_linearly(small_sweep):
    cfg, pairs = small_sweep
    overloaded = [
        (sdn.n, sdn.queue_backlog)
        for _, sdn in pairs
        if sdn.n * cfg.controller.event_rate_lambda >= 2 * cfg.controller.capacity_mu
    ]
    assert len(overloaded) >= 5
    assert r_squared([n for n, _ in overloaded], [q for _, q in overloaded]) >= 0.99


def test_sweep_is_deterministic():
    cfg = ScenarioConfig(seeds_per_point=2, flow_samples=8)
    cfg.sweep = dataclasses.replace(cfg.sweep, start=20, end=80, step=30)
    again = ScenarioConfig(seeds_per_point=2, flow_samples=8)
    again.sweep = dataclasses.replace(again.sweep, start=20, end=80, step=30)
    assert sweep(cfg) == sweep(again)


def test_sweep_error_names_point_seed_and_mode(monkeypatch):
    def broken_queue(n, cfg, seed):
        raise ValueError("queue exploded")

    monkeypatch.setattr(ctl, "simulate_queue", broken_queue)
    cfg = small_config()
    cfg.sweep = dataclasses.replace(cfg.sweep, start=25, end=25, step=30)
    with pytest.raises(ValueError) as info:
        sweep(cfg)
    assert str(info.value) == f"sweep point n=25, seed={cfg.seed}, mode=sdn: queue exploded"


# ----------------------------------------------------------------- comparison

def test_compare_identical_modes_is_neutral():
    report = MetricsReport(
        n=50, mode="traditional", latency_avg_ms=10.0, latency_max_ms=12.0,
        throughput_bps=1000.0, pdr=0.9, control_overhead_bits=500.0,
        queue_backlog=0.0, effective_capacity_bps=2000.0,
        cpu_pct=0.0, mem_pct=0.0, net_pct=0.0, storage_pct=0.0, saturated=False,
    )
    twin = dataclasses.replace(report, mode="sdn")
    neutral_costs = CostParams(
        node_hw_traditional=100.0, node_sw_traditional=0.0,
        node_hw_sdn=100.0, controller_capex=0.0,
    )
    result = compare([(report, twin)], neutral_costs, reference_n=50)
    row = result.headline
    assert row.capex_reduction == 0.0
    assert row.latency_reduction == 0.0
    assert row.throughput_gain == 1.0
    assert row.pdr_delta == 0.0
    assert row.overhead_ratio == 1.0
    assert row.capacity_ratio == 1.0


def test_compare_requires_reference_point(small_sweep):
    _, pairs = small_sweep
    with pytest.raises(ValueError):
        compare(pairs, CostParams(), reference_n=47)
    with pytest.raises(ValueError):
        compare([], CostParams(), reference_n=50)


def test_compare_headline_matches_reference_row(small_sweep):
    cfg, pairs = small_sweep
    result = compare(pairs, cfg.costs, cfg.reference_n)
    assert isinstance(result.headline, ComparisonRow)
    assert result.headline.n == cfg.reference_n
    assert result.headline in result.rows
    assert result.headline.capex_reduction == pytest.approx(0.25)
    assert result.headline.opex_reduction == pytest.approx(0.30)


def test_compare_overhead_ratio_below_one_everywhere(small_sweep):
    cfg, pairs = small_sweep
    result = compare(pairs, cfg.costs, cfg.reference_n)
    for row in result.rows:
        assert row.overhead_ratio < 1.0


def test_config_validation_names_field_paths():
    cfg = ScenarioConfig()
    cfg.topology = dataclasses.replace(cfg.topology, link_probability=1.5)
    with pytest.raises(ValueError, match="topology.link_probability"):
        cfg.validate()
    cfg = ScenarioConfig(seeds_per_point=0)
    with pytest.raises(ValueError, match="seeds_per_point"):
        cfg.validate()


# ------------------------------------------------------------------ hop sampling

@pytest.mark.parametrize("n", [50, 200])
def test_sampled_hops_match_a_per_flow_replay_with_explicit_unit_weights(n):
    # Shaped like the flow_heavy workload's end points: sparse, 1000 flows.
    cfg = small_config(flow_samples=1000)
    topo = generate_erdos_renyi(n, 0.03, seed=11)
    hops, total = _sample_hops(cfg, topo, 5)
    rng, unit, expected = random.Random(5), {i: 1.0 for i in range(n)}, []
    for _ in range(1000):
        src = rand_index(rng, n)
        dst = rand_index(rng, n - 1)
        dst += dst >= src
        try:
            expected.append(len(shortest_path(topo, src, dst, unit)[0]) - 1)
        except NoRouteError:
            pass
    assert total == 1000 and hops == expected
    assert max(hops) > 2


NUMERIC_CONFIG_FIELDS = [
    (section, f.name)
    for section, settings in (("", ScenarioConfig()), ("sweep", SweepSettings()),
                              ("topology", TopologySettings()))
    for f in dataclasses.fields(settings)
    if isinstance(getattr(settings, f.name), (int, float))
]


@pytest.mark.parametrize("section, name", NUMERIC_CONFIG_FIELDS,
                         ids=[f"{s}.{n}" if s else n for s, n in NUMERIC_CONFIG_FIELDS])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_config_validation_rejects_non_finite_values(section, name, bad):
    # NaN fails no range check; a NaN sim_duration_s would be reported as
    # "controller.sim_duration_s must equal sim_duration_s".
    cfg = ScenarioConfig()
    if section:
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **{name: bad}))
    else:
        setattr(cfg, name, bad)
    path = f"{section}.{name}" if section else name
    with pytest.raises(ValueError, match=f"^{re.escape(path)} must be finite$"):
        cfg.validate()
