"""Scenario runs, sweep aggregation, and comparison-ratio tests."""

import dataclasses
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnmanet import controller as ctl
from sdnmanet import simulator
from sdnmanet.controller import fluid_backlog
from sdnmanet.config import _REGISTRY, parse_config
from sdnmanet.econ import CostParams
from sdnmanet.rng import derive_seed, rand_index
from sdnmanet.simulator import (
    ComparisonRow,
    MetricsReport,
    ScenarioConfig,
    _sample_hops,
    compare,
    pdr_model,
    rediscovery_rate,
    run_scenario,
    sweep,
    throughput_model,
)
from sdnmanet.topology import NoRouteError, generate_erdos_renyi, route_costs

from test_topology import heap_of_paths_shortest_path


def small_config(**overrides) -> ScenarioConfig:
    """Default scenario shrunk for unit-test speed."""
    cfg = ScenarioConfig(seeds_per_point=2, flow_samples=10)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def r_squared(xs, ys):
    """Least-squares linear fit quality, computed from scratch."""
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
    # A bad mode is checked for every mode-taking function in test_modes.py.
    cfg = small_config()
    with pytest.raises(ValueError):
        run_scenario(cfg, 0, "sdn", seed=1)


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
    assert str(info.value) == f"sweep point n=25, seed={derive_seed(cfg.seed, 0, 0)}, mode=sdn: queue exploded"


def test_every_run_of_the_reference_sweep_has_its_own_seed(monkeypatch):
    # Run seeds were cfg.seed + point_index + seed_index: 16 distinct over
    # these 70 runs, with adjacent points sharing 9 of their 10.
    runs = []

    def record(cfg, n, mode, seed):
        runs.append((n, mode, seed))
        return MetricsReport(
            n=n, mode=mode, latency_avg_ms=0.0, latency_max_ms=0.0, throughput_bps=0.0, pdr=0.0,
            control_overhead_bits=0.0, queue_backlog=0.0, effective_capacity_bps=0.0,
            cpu_pct=0.0, mem_pct=0.0, net_pct=0.0, storage_pct=0.0, saturated=False,
        )

    monkeypatch.setattr(simulator, "run_scenario", record)
    sweep(parse_config(Path(__file__).resolve().parent.parent / "scenarios" / "reference.cfg"))
    seeds = {seed for _, _, seed in runs}
    assert len(runs) == 140 and len(seeds) == 70
    for seed in seeds:
        assert sorted(mode for _, mode, s in runs if s == seed) == ["sdn", "traditional"]


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
    # A group checks itself when built; the config parser adds the group's prefix.
    with pytest.raises(ValueError, match=r"^link_probability must be within \[0, 1\]$"):
        dataclasses.replace(ScenarioConfig().topology, link_probability=1.5)
    with pytest.raises(ValueError, match="^seeds_per_point must be at least 1$"):
        ScenarioConfig(seeds_per_point=0).validate()


# ------------------------------------------------------------------ hop sampling

@pytest.mark.parametrize("n, flows", [
    # Shaped like the flow_heavy workload's end points: sparse, 1000 flows, so
    # most destinations are shared by enough flows to be routed off one tree.
    pytest.param(50, 1000, id="50"),
    pytest.param(200, 1000, id="200"),
    # The reference config's 30 flows: no destination draws a third flow, so
    # every flow runs its own search.
    pytest.param(50, 30, id="50-30-flows"),
    pytest.param(200, 30, id="200-30-flows"),
])
def test_sampled_hops_match_a_per_flow_replay_with_explicit_unit_weights(n, flows, monkeypatch):
    trees = []
    monkeypatch.setattr(simulator, "route_costs", lambda t, dst: trees.append(dst) or route_costs(t, dst))
    cfg = small_config(flow_samples=flows)
    topo = generate_erdos_renyi(n, 0.03, seed=11)
    hops, total = _sample_hops(cfg, topo, 5)
    rng, unit, expected = random.Random(5), {i: 1 for i in range(n)}, []
    for _ in range(flows):
        src = rand_index(rng, n)
        dst = rand_index(rng, n - 1)
        dst += dst >= src
        try:
            expected.append(len(heap_of_paths_shortest_path(topo, src, dst, unit)[0]) - 1)
        except NoRouteError:
            pass
    assert total == flows and hops == expected
    assert max(hops) > 2
    assert (len(trees) > 0) == (flows == 1000) and len(trees) == len(set(trees))


def component_roots(n, edges):
    """Oracle: union-find over the edge list; the root of each node's component."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        parent[root(a)] = root(b)
    return [root(i) for i in range(n)]


def bfs_hops(n, edges, src):
    """Oracle: fewest hops from ``src`` to every node it reaches."""
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    hops, frontier = {src: 0}, [src]
    while frontier:
        following = []
        for u in frontier:
            for v in adjacent[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    following.append(v)
        frontier = following
    return hops


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 80),
    # sparse values split the graph into many components
    p=st.one_of(st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.1]), st.floats(0.0, 0.15)),
    graph_seed=st.integers(0, 2**32),
    flow_seed=st.integers(0, 2**32),
    flows=st.integers(1, 200),
)
def test_sampled_flows_are_routed_exactly_when_both_ends_share_a_component(
    n, p, graph_seed, flow_seed, flows
):
    topo = generate_erdos_renyi(n, p, graph_seed)
    hops, total = _sample_hops(small_config(flow_samples=flows), topo, flow_seed)
    if n < 2:
        assert (hops, total) == ([], 0)
        return
    roots, rng, routable = component_roots(n, topo.edges), random.Random(flow_seed), []
    for _ in range(flows):  # the (src, dst) draws of _sample_hops
        src = rand_index(rng, n)
        dst = rand_index(rng, n - 1)
        dst += dst >= src
        if roots[src] == roots[dst]:
            routable.append((src, dst))
    assert total == flows and len(hops) == len(routable)
    for count, (src, dst) in zip(hops, routable):
        assert count >= bfs_hops(n, topo.edges, src)[dst]


def build_with(path, value):
    """Build the group of the dotted config key ``path`` directly with
    ``value`` in that field; a root field is checked by ``validate()``."""
    group, _, name = path.rpartition(".")
    if group:
        type(getattr(ScenarioConfig(), group))(**{name: value})
    else:
        ScenarioConfig(**{name: value}).validate()


# Every config key, plus the controller's horizon, which the parser derives.
NUMERIC_CONFIG_FIELDS = [*_REGISTRY, "controller.sim_duration_s"]


@pytest.mark.parametrize("path", NUMERIC_CONFIG_FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_config_validation_rejects_non_finite_values(path, bad):
    # NaN fails no range check; a NaN sim_duration_s would be reported as
    # "controller.sim_duration_s must equal sim_duration_s".
    name = path.rpartition(".")[2]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite$"):
        build_with(path, bad)


INTEGER_CONFIG_FIELDS = [key for key, (_, _, kind) in _REGISTRY.items() if kind is int]


@pytest.mark.parametrize("path", INTEGER_CONFIG_FIELDS)
@pytest.mark.parametrize("bad", [2.5, 30.0, True], ids=["fraction", "whole-float", "bool"])
def test_config_validation_rejects_non_integer_counts(path, bad):
    # flow_samples = 2.5 used to pass, then fail in run_scenario with a TypeError naming no key.
    name = path.rpartition(".")[2]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {bad!r}$"):
        build_with(path, bad)
