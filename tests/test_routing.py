"""Path cost, update time, latency, and control-overhead model tests."""

import math
import random

import pytest

from sdnmanet.routing import (
    PathCostWeights,
    RoutingParams,
    control_overhead,
    latency_manet,
    latency_sdn,
    sdn_path_cost,
    sdn_update_time,
    update_time,
)
from sdnmanet.topology import NoRouteError, generate_erdos_renyi

from test_topology import brute_force_min_cost, diamond_topology, line_topology


def params(**overrides):
    return RoutingParams(**overrides)


# ----------------------------------------------------------- sdn path costs

def test_sdn_path_cost_line():
    weights = PathCostWeights({0: 1.0, 1: 1.0, 2: 1.0})
    assert sdn_path_cost(line_topology(), weights, 0, 2) == 4.0


def test_sdn_path_cost_diamond():
    weights = PathCostWeights({0: 1.0, 1: 3.0, 2: 1.0, 3: 1.0})
    assert sdn_path_cost(diamond_topology(), weights, 0, 2) == 6.0


def test_sdn_path_cost_degenerate_source_equals_destination():
    weights = PathCostWeights({0: 1.0, 1: 2.0, 2: 1.0})
    assert sdn_path_cost(line_topology(), weights, 1, 1) == 4.0  # w=2 times degree 2


def test_sdn_path_cost_unreachable_raises():
    t = generate_erdos_renyi(4, 0.0, seed=1)
    with pytest.raises(NoRouteError, match="no route from 0 to 3"):
        sdn_path_cost(t, PathCostWeights({i: 1.0 for i in range(4)}), 0, 3)


def test_sdn_path_cost_requires_full_weight_cover():
    with pytest.raises(ValueError, match="weights.w missing node 2"):
        sdn_path_cost(line_topology(), PathCostWeights({0: 1.0, 1: 1.0}), 0, 2)
    with pytest.raises(IndexError, match="node 3 not in topology of 3 nodes"):
        sdn_path_cost(line_topology(), PathCostWeights({0: 1.0, 1: 1.0}), 0, 3)


def test_sdn_path_cost_rounds_each_sum_from_the_source():
    # Entries 0.5, 1.5, 2**54, 0.5: both routes, 0.5 + 0.5 + 2**54 via node 3
    # and 0.5 + 1.5 + 2**54 via node 1, round to 2**54.
    weights = PathCostWeights({0: 0.25, 1: 0.75, 2: 2.0**53, 3: 0.25})
    assert sdn_path_cost(diamond_topology(), weights, 0, 2) == 2.0**54
    # Entries 2**53, 1, 0.5 on a line: 2**53 + 1 rounds to even and drops
    # the 1, while from the other end 0.5 + 1 = 1.5 rounds 2**53 + 1.5 up.
    weights = PathCostWeights({0: 2.0**53, 1: 0.5, 2: 0.5})
    assert sdn_path_cost(line_topology(), weights, 0, 2) == 2.0**53
    assert sdn_path_cost(line_topology(), weights, 2, 0) == 2.0**53 + 2


def test_sdn_path_cost_matches_brute_force():
    rng = random.Random(777)
    for trial in range(60):
        n = rng.randint(2, 8)
        t = generate_erdos_renyi(n, rng.uniform(0.4, 1.0), seed=trial + 500)
        w = {i: rng.uniform(0.5, 4.0) for i in range(n)}
        src, dst = rng.sample(range(n), 2)
        expected = brute_force_min_cost(t, src, dst, w)
        if expected is None:
            with pytest.raises(NoRouteError):
                sdn_path_cost(t, PathCostWeights(w), src, dst)
        else:
            assert sdn_path_cost(t, PathCostWeights(w), src, dst) == pytest.approx(expected[0])


def test_sdn_path_cost_never_beaten_by_any_simple_path():
    rng = random.Random(31)
    for trial in range(30):
        n = rng.randint(3, 8)
        t = generate_erdos_renyi(n, 0.7, seed=trial + 900)
        w = {i: rng.uniform(0.5, 3.0) for i in range(n)}
        src, dst = rng.sample(range(n), 2)
        try:
            best = sdn_path_cost(t, PathCostWeights(w), src, dst)
        except NoRouteError:
            continue
        # cost of one arbitrary valid path found by DFS
        stack = [(src, (src,))]
        seen_path = None
        while stack:
            node, path = stack.pop()
            if node == dst:
                seen_path = path
                break
            for nxt in t._adjacency[node]:
                if nxt not in path:
                    stack.append((nxt, path + (nxt,)))
        assert seen_path is not None
        arbitrary = sum(w[i] * len(t._adjacency[i]) for i in seen_path)
        assert best <= arbitrary + 1e-9


def test_path_weights_must_be_positive():
    with pytest.raises(ValueError):
        PathCostWeights({0: 0.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_path_weights_must_be_finite(bad):
    with pytest.raises(ValueError, match="weight for node 1 must be finite"):
        PathCostWeights({0: 1.0, 1: bad})


# -------------------------------------------------------------- update time

def test_update_time_sums_components():
    p = params(discovery_base_ms=10.0, propagation_base_ms=5.0, reconfig_base_ms=3.0)
    assert update_time(p) == 18.0


def test_update_time_zero():
    p = params(discovery_base_ms=0.0, propagation_base_ms=0.0, reconfig_base_ms=0.0)
    assert update_time(p) == 0.0


def test_negative_component_rejected():
    with pytest.raises(ValueError):
        params(discovery_base_ms=-1.0)


def test_sdn_update_faster_when_compute_beats_discovery():
    p = params()  # controller_compute 5 < discovery 40
    assert sdn_update_time(p) < update_time(p)
    assert sdn_update_time(p) == 15.0
    assert update_time(p) == 60.0


# ------------------------------------------------------------------ latency

def test_latency_manet_without_breaks_is_pure_transmission():
    p = params(per_hop_delay_ms=7.0)
    assert latency_manet(p, hops=4, window_s=1.0, break_rate_per_s=0.0) == 28.0


def test_latency_manet_adds_amortized_discovery():
    # expected discovery term: 0.5 breaks/s * 1 s * 40 ms update = 20 ms
    p = params(
        per_hop_delay_ms=10.0,
        discovery_base_ms=20.0, propagation_base_ms=15.0, reconfig_base_ms=5.0,
    )
    assert latency_manet(p, hops=3, window_s=1.0, break_rate_per_s=0.5) == 50.0


def test_latency_manet_monotone_in_break_rate():
    previous = -1.0
    for rate in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        value = latency_manet(params(), hops=3, window_s=1.0, break_rate_per_s=rate)
        assert value > previous
        previous = value


def test_latency_manet_rejects_zero_hops():
    with pytest.raises(ValueError):
        latency_manet(params(), hops=0, window_s=1.0, break_rate_per_s=0.0)


def test_latency_manet_rejects_negative_break_rate():
    with pytest.raises(ValueError):
        latency_manet(params(), hops=1, window_s=1.0, break_rate_per_s=-0.1)


def test_latency_sdn_sums_terms():
    p = params(controller_compute_ms=5.0, controller_rtt_ms=0.0, per_hop_delay_ms=10.0)
    assert latency_sdn(p, hops=3) == 35.0


def test_latency_sdn_pure_transmission_when_controller_free():
    p = params(controller_compute_ms=0.0, controller_rtt_ms=0.0, per_hop_delay_ms=4.0)
    assert latency_sdn(p, hops=5) == 20.0


def test_latency_sdn_rejects_zero_hops():
    with pytest.raises(ValueError):
        latency_sdn(params(), hops=0)


# ----------------------------------------------------------- control traffic

def test_control_overhead_known_values():
    # 10-node complete graph: 45 edges; one discovery per second for 10 s,
    # flooding 2 messages per edge, 512-bit messages.
    t = generate_erdos_renyi(10, 1.0, seed=1)
    p = params(discovery_flood_factor=2.0, control_msg_bits=512, sdn_update_rate_per_node_s=1.0)
    assert control_overhead("traditional", t, p, 10.0, 1.0) == 460_800.0
    assert control_overhead("sdn", t, p, 10.0, 1.0) == 51_200.0


def test_control_overhead_vanishes_with_duration():
    t = generate_erdos_renyi(10, 0.5, seed=2)
    p = params(sdn_update_rate_per_node_s=1.0)
    for mode in ("traditional", "sdn"):
        assert control_overhead(mode, t, p, 1e-9, 1.0) == pytest.approx(0.0, abs=1e-3)
    with pytest.raises(ValueError):
        control_overhead("traditional", t, p, 0.0, 1.0)


def test_control_overhead_rejects_negative_break_rate():
    t = generate_erdos_renyi(4, 0.5, seed=3)
    for mode in ("traditional", "sdn"):
        with pytest.raises(ValueError):
            control_overhead(mode, t, params(), 1.0, -0.1)


def test_sdn_overhead_below_traditional_at_expected_edge_counts():
    # Expected-topology dominance across 10..200 nodes with default
    # parameters: flooding across p*n(n-1)/2 expected links always costs
    # more than the controller's fixed per-node stream.
    from sdnmanet.simulator import ScenarioConfig, rediscovery_rate

    cfg = ScenarioConfig()
    for n in range(10, 201):
        expected_edges = cfg.topology.link_probability * n * (n - 1) / 2
        rate = rediscovery_rate(cfg, n)
        trad = rate * cfg.routing.discovery_flood_factor * expected_edges * cfg.routing.control_msg_bits
        sdn = cfg.routing.sdn_update_rate_per_node_s * n * cfg.routing.control_msg_bits
        assert sdn < trad, f"dominance fails at n={n}"


def test_traditional_overhead_superlinear_sdn_linear():
    p = params(sdn_update_rate_per_node_s=1.0)
    trad, sdn = {}, {}
    for n in (50, 100, 200):
        values = [
            control_overhead("traditional", generate_erdos_renyi(n, 0.05, seed=s), p, 10.0, 1.0)
            for s in range(20)
        ]
        trad[n] = sum(values) / len(values)
        sdn[n] = control_overhead("sdn", generate_erdos_renyi(n, 0.05, seed=0), p, 10.0, 1.0)
    # doubling n roughly quadruples flooded traffic (edges scale with n^2)
    # but exactly doubles controller traffic
    assert trad[200] / trad[100] > 3.0
    assert trad[100] / trad[50] > 3.0
    assert sdn[200] == 2 * sdn[100] == 4 * sdn[50]
