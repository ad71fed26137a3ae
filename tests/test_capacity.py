"""Overhead model and effective-capacity tests."""

import dataclasses
import math

import pytest

from sdnmanet.capacity import (
    CapacityGains,
    OverheadParams,
    capacity_sdn,
    capacity_total,
    capacity_traditional,
    clustered_sliced_capacity,
    effective_capacity,
    max_supported_nodes,
    overhead_bits,
    pairwise_packet_count,
)
from sdnmanet.topology import NodeState, Topology, distance, generate_erdos_renyi


def two_node_topology(gap_m: float) -> Topology:
    nodes = [
        NodeState(position=(0.0, 0.0), velocity=(0.0, 0.0), capacity_bps=1000.0, waypoint=(0.0, 0.0)),
        NodeState(position=(gap_m, 0.0), velocity=(0.0, 0.0), capacity_bps=1000.0, waypoint=(gap_m, 0.0)),
    ]
    return Topology(nodes=nodes, edges=((0, 1),), area=(2 * gap_m, 2 * gap_m))


# ----------------------------------------------------------- pairwise model

def test_zero_coefficient_means_zero_packets():
    t = generate_erdos_renyi(20, 0.3, seed=1)
    params = OverheadParams(pair_coefficient=0.0)
    assert pairwise_packet_count(t, 5.0, params, 10.0) == 0


def test_pairwise_packets_single_pair_arithmetic():
    t = two_node_topology(100.0)
    params = OverheadParams(pair_coefficient=0.01)
    assert pairwise_packet_count(t, 2.0, params, 1.0) == 2  # round(0.01*100*2*1)


def test_pairwise_packets_match_double_loop_oracle():
    params = OverheadParams(pair_coefficient=0.003)
    for seed in range(10):
        t = generate_erdos_renyi(25, 0.3, seed=seed)
        edge_set = set(t.edges)
        expected = 0
        for i in range(25):
            for j in range(25):
                if i < j and (i, j) in edge_set:
                    expected += round(0.003 * distance(t, i, j) * 4.0 * 7.0)
        assert pairwise_packet_count(t, 4.0, params, 7.0) == expected


def test_pairwise_packets_grow_with_n_in_expectation():
    params = OverheadParams()
    means = []
    for n in (20, 40, 80):
        counts = [
            pairwise_packet_count(generate_erdos_renyi(n, 0.05, seed=s), 5.5, params, 30.0)
            for s in range(10)
        ]
        means.append(sum(counts) / len(counts))
    assert means[0] < means[1] < means[2]


def test_pairwise_packets_grow_with_speed_and_coefficient():
    t = generate_erdos_renyi(40, 0.2, seed=3)
    base = pairwise_packet_count(t, 2.0, OverheadParams(pair_coefficient=0.001), 30.0)
    faster = pairwise_packet_count(t, 8.0, OverheadParams(pair_coefficient=0.001), 30.0)
    denser = pairwise_packet_count(t, 2.0, OverheadParams(pair_coefficient=0.004), 30.0)
    assert faster > base
    assert denser > base


# ------------------------------------------------------------ overhead bits

def test_overhead_bits_packet_size_product():
    params = OverheadParams(packet_size_bits=512)
    assert overhead_bits(10, params) == 5120.0
    assert overhead_bits(0, params) == 0.0
    assert overhead_bits(1000, params) == 512_000.0


def test_overhead_bits_rejects_negative_count():
    with pytest.raises(ValueError):
        overhead_bits(-1, OverheadParams())


# ------------------------------------------------------- capacity breakdowns

def test_capacity_sdn_subtracts_overhead():
    b = capacity_sdn([400.0, 600.0], 200.0, 300.0)
    assert b.node_sum == 1000.0
    assert b.effective == 900.0
    assert not b.saturated


def test_capacity_sdn_clamps_to_zero_and_flags():
    b = capacity_sdn([100.0], 50.0, 300.0)
    assert b.effective == 0.0
    assert b.saturated


def test_capacity_sdn_no_overhead_sums_everything():
    b = capacity_sdn([100.0, 200.0], 50.0, 0.0)
    assert b.effective == 350.0


def test_capacity_traditional_subtracts_flood():
    b = capacity_traditional([500.0, 500.0], 100.0)
    assert b.effective == 900.0
    assert b.controller == 0.0


def test_flood_multiplier_scales_overhead():
    params = OverheadParams(flood_multiplier=3.0)
    rate = 123.0
    assert params.flood_multiplier * rate == 369.0


def test_capacity_upper_bound():
    b = capacity_sdn([100.0, 300.0], 50.0, 17.0)
    assert b.effective <= 100.0 + 300.0 + 50.0


def test_capacity_total_sums():
    assert capacity_total(400.0, 250.0) == 650.0
    assert capacity_total(0.0, 7.5) == 7.5


def test_clustered_sliced_uplift_is_1_35():
    assert clustered_sliced_capacity(1000.0, CapacityGains()) == pytest.approx(1350.0)


def test_sdn_capacity_beats_traditional_from_30_nodes():
    from sdnmanet.simulator import ScenarioConfig

    cfg = ScenarioConfig()
    for n in range(30, 201, 10):
        t = generate_erdos_renyi(n, cfg.topology.link_probability, seed=n,
                                 node_capacity_bps=cfg.topology.node_capacity_bps)
        packets = pairwise_packet_count(t, cfg.mean_speed_mps(), cfg.overhead, 1.0)
        rate = overhead_bits(packets, cfg.overhead)
        caps = [node.capacity_bps for node in t.nodes]
        sdn = capacity_sdn(caps, cfg.controller_capacity_bps, rate)
        trad = capacity_traditional(caps, cfg.overhead.flood_multiplier * rate)
        assert sdn.effective > trad.effective


# -------------------------------------------------------- supportable nodes

def _generator(node_capacity=15_000.0, p=0.05):
    def gen(n):
        return generate_erdos_renyi(n, p, seed=1000 + n, node_capacity_bps=node_capacity)
    return gen


def test_unsatisfiable_demand_returns_zero():
    result = max_supported_nodes(
        "traditional", per_node_demand=1e9, params=OverheadParams(),
        topology_generator=_generator(), mean_speed=5.5,
    )
    assert result == 0


def test_supported_nodes_nonincreasing_in_demand():
    previous = None
    for demand in (5_000.0, 8_000.0, 11_000.0, 14_000.0):
        value = max_supported_nodes(
            "sdn", demand, OverheadParams(), _generator(), 5.5,
            controller_capacity=10_000.0,
        )
        if previous is not None:
            assert value <= previous
        previous = value


@pytest.mark.parametrize("mode, demand, controller", [
    ("traditional", 10_000.0, 0.0),
    ("traditional", 12_500.0, 0.0),
    ("sdn", 11_500.0, 10_000.0),
    ("sdn", 13_000.0, 10_000.0),
])
def test_supported_nodes_match_an_exhaustive_scan(mode, demand, controller):
    # Each n draws its own graph, so supportability is not monotone in n and
    # a bisection can stop short: at 10,000 b/s, traditional mode fails at
    # n = 37 and 45 but still supports 52, and bisecting returned 44.
    gen = _generator(p=0.1)
    supported = [
        n for n in range(1, 61)
        if effective_capacity(mode, gen(n), 5.5, OverheadParams(), controller, 1.0).effective
        >= n * demand
    ]
    assert any(n not in supported for n in range(1, max(supported)))  # not monotone
    result = max_supported_nodes(
        mode, demand, OverheadParams(), gen, 5.5, controller_capacity=controller, n_max=60,
    )
    assert result == max(supported)


def test_supported_nodes_rejects_bad_inputs():
    with pytest.raises(ValueError):
        max_supported_nodes("sdn", 0.0, OverheadParams(), _generator(), 5.5)
    with pytest.raises(ValueError):
        max_supported_nodes("mesh", 1.0, OverheadParams(), _generator(), 5.5)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(OverheadParams)])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_overhead_params_reject_non_finite_values(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        OverheadParams(**{name: bad})
