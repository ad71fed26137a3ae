"""Overhead model and effective-capacity tests."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdnmanet.capacity import (
    CapacityGains,
    OverheadParams,
    clustered_sliced_capacity,
    effective_capacity,
    max_supported_nodes,
    pairwise_packet_count,
)
from sdnmanet.topology import Topology, distance, generate_erdos_renyi
from test_topology import from_records


def two_node_topology(gap_m: float) -> Topology:
    nodes = [((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)), ((gap_m, 0.0), (0.0, 0.0), (gap_m, 0.0))]
    return from_records(nodes, ((0, 1),), (2 * gap_m, 2 * gap_m))


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


def per_edge_packet_count(t, mean_speed, params, window_s):
    """Oracle: the packet count as first written, one Python iteration per edge."""
    if window_s <= 0.0:
        raise ValueError("window must be positive")
    pos = [position for position, _, _ in t.nodes]
    total = 0
    for a, b in t.edges:
        (ax, ay), (bx, by) = pos[a], pos[b]
        total += round(params.pair_coefficient * math.hypot(ax - bx, ay - by) * mean_speed * window_s)
    return total


_coordinate = st.one_of(st.floats(0.0, 1000.0), st.floats(1e6 - 1.0, 1e6 + 1.0),
                        st.sampled_from([0.0, -0.0, 1e6, 1e6 - 2**-30, 1e6 + 2**-30]))


@st.composite
def packet_worlds(draw):
    """Up to 12 nodes on at most 6 distinct spots (so nodes often coincide), any edge set."""
    spots = draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6))
    n = draw(st.integers(1, 12))
    records = [(p, (0.0, 0.0), p) for p in draw(
        st.lists(st.sampled_from(spots), min_size=n, max_size=n))]
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_records(records, tuple(edges))


_coincident = from_records([((5.0, 5.0), (0.0, 0.0), (5.0, 5.0))] * 3, ((0, 1), (0, 2), (1, 2)))
_near_1e6 = from_records([(p, (0.0, 0.0), p)
                          for p in ((1e6, 1e6), (1e6 - 0.5, 1e6), (1e6 + 2**-30, 1e6 - 2**-30))],
                         ((0, 1), (0, 2), (1, 2)))
_half_way = two_node_topology(6.428571428571428)


@settings(max_examples=300, deadline=None)
@given(
    t=packet_worlds(),
    coefficient=st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.001, 0.003])),
    mean_speed=st.floats(0.0, 50.0),
    window_s=st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1.0, 7.0])),
)
@example(t=_coincident, coefficient=0.5, mean_speed=3.0, window_s=1.0)
@example(t=_near_1e6, coefficient=1.0, mean_speed=1.0, window_s=1.0)  # edge (0, 1): 0.5 rounds to 0
@example(t=_near_1e6, coefficient=3.0, mean_speed=1.0, window_s=1.0)  # edge (0, 1): 1.5 rounds to 2
# 0.1 * d * 3 * 7 rounds to 13; every other association of the product rounds to 14
@example(t=_half_way, coefficient=0.1, mean_speed=3.0, window_s=7.0)
def test_pairwise_packets_match_the_per_edge_loop(t, coefficient, mean_speed, window_s):
    params = OverheadParams(pair_coefficient=coefficient)
    packets = pairwise_packet_count(t, mean_speed, params, window_s)
    assert packets == per_edge_packet_count(t, mean_speed, params, window_s)
    assert type(packets) is int


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


# ------------------------------------------------------- capacity breakdowns

def breakdown(mode, node_capacity, controller, packet_bits, flood=1.5, mean_speed=1.0, window_s=1.0):
    """``effective_capacity`` of two linked nodes 1 m apart at pair
    coefficient 1: one packet of ``packet_bits`` per second per m/s of
    ``mean_speed``, before the flooding multiplier."""
    params = OverheadParams(packet_size_bits=packet_bits, pair_coefficient=1.0, flood_multiplier=flood)
    return effective_capacity(mode, two_node_topology(1.0), node_capacity, mean_speed, params, controller, window_s)


def test_overhead_bits_packet_size_product():
    assert breakdown("sdn", 1.0, 0.0, 512, mean_speed=10.0).overhead == 5120.0
    assert breakdown("sdn", 1.0, 0.0, 512, mean_speed=10.0, window_s=4.0).overhead == 5120.0
    assert breakdown("sdn", 1.0, 0.0, 512, mean_speed=0.0).overhead == 0.0
    assert breakdown("sdn", 1.0, 0.0, 512, mean_speed=1000.0).overhead == 512_000.0


def test_overhead_bits_rejects_negative_count():
    # A negative mean speed would make a negative packet count.
    with pytest.raises(ValueError, match="mean speed must be non-negative"):
        breakdown("sdn", 1.0, 0.0, 512, mean_speed=-1.0)


def test_capacity_sdn_subtracts_overhead():
    b = breakdown("sdn", 500.0, 200.0, 300)
    assert (b.node_sum, b.controller, b.overhead) == (1000.0, 200.0, 300.0)
    assert b.effective == 900.0
    assert not b.saturated


def test_capacity_sdn_clamps_to_zero_and_flags():
    b = breakdown("sdn", 50.0, 50.0, 300)
    assert b.effective == 0.0
    assert b.saturated
    b = breakdown("traditional", 50.0, 50.0, 100)  # 150 b/s of flooding
    assert b.effective == 0.0
    assert b.saturated


def test_capacity_sdn_no_overhead_sums_everything():
    b = breakdown("sdn", 150.0, 50.0, 512, mean_speed=0.0)
    assert b.effective == 350.0


def test_capacity_traditional_subtracts_flood():
    b = breakdown("traditional", 500.0, 999.0, 200, flood=0.5)
    assert b.effective == 900.0
    assert b.controller == 0.0  # the controller term counts in SDN mode only


def test_flood_multiplier_scales_overhead():
    for flood in (0.0, 1.5, 3.0):
        sdn = breakdown("sdn", 1e6, 0.0, 123, flood=flood)
        trad = breakdown("traditional", 1e6, 0.0, 123, flood=flood)
        assert sdn.overhead == 123.0  # no flooding in SDN mode
        assert trad.overhead == flood * 123.0


def test_capacity_upper_bound():
    for mode in ("sdn", "traditional"):
        b = breakdown(mode, 200.0, 50.0, 17)
        assert b.effective <= b.node_sum + b.controller <= 2 * 200.0 + 50.0
    assert breakdown("sdn", 200.0, 50.0, 17).effective == 433.0


@pytest.mark.parametrize("node_capacity, controller", [(-1.0, 0.0), (1.0, -1.0)])
def test_effective_capacity_rejects_negative_capacities(node_capacity, controller):
    for mode in ("sdn", "traditional"):
        with pytest.raises(ValueError, match="capacities .* must be non-negative"):
            breakdown(mode, node_capacity, controller, 512)


def test_capacity_total_sums():
    # clustered_sliced_capacity returns the clustered plus the sliced portion.
    gains = CapacityGains(clustered_share=0.4, clustered_gain=1.0, sliced_share=0.25, sliced_gain=1.0)
    assert clustered_sliced_capacity(1000.0, gains) == 650.0
    gains = CapacityGains(clustered_share=0.0, sliced_share=0.75, sliced_gain=1.0)
    assert clustered_sliced_capacity(10.0, gains) == 7.5


def test_clustered_sliced_uplift_is_1_35():
    assert clustered_sliced_capacity(1000.0, CapacityGains()) == pytest.approx(1350.0)


def test_sdn_capacity_beats_traditional_from_30_nodes():
    from sdnmanet.simulator import ScenarioConfig

    cfg = ScenarioConfig()
    for n in range(30, 201, 10):
        t = generate_erdos_renyi(n, cfg.topology.link_probability, seed=n)
        sdn, trad = (effective_capacity(mode, t, cfg.topology.node_capacity_bps, cfg.mean_speed_mps(),
                                        cfg.overhead, cfg.controller_capacity_bps, 1.0)
                     for mode in ("sdn", "traditional"))
        assert sdn.effective > trad.effective


# -------------------------------------------------------- supportable nodes

def _generator(p=0.05):
    def gen(n):
        return generate_erdos_renyi(n, p, seed=1000 + n)
    return gen


def test_unsatisfiable_demand_returns_zero():
    result = max_supported_nodes(
        "traditional", per_node_demand=1e9, node_capacity=15_000.0, params=OverheadParams(),
        topology_generator=_generator(), mean_speed=5.5,
    )
    assert result == 0


def test_supported_nodes_nonincreasing_in_demand():
    previous = None
    for demand in (5_000.0, 8_000.0, 11_000.0, 14_000.0):
        value = max_supported_nodes(
            "sdn", demand, 15_000.0, OverheadParams(), _generator(), 5.5,
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
        if effective_capacity(mode, gen(n), 15_000.0, 5.5, OverheadParams(), controller, 1.0).effective
        >= n * demand
    ]
    assert any(n not in supported for n in range(1, max(supported)))  # not monotone
    result = max_supported_nodes(
        mode, demand, 15_000.0, OverheadParams(), gen, 5.5, controller_capacity=controller, n_max=60,
    )
    assert result == max(supported)


def test_supported_nodes_rejects_bad_inputs():
    # A bad mode is checked for every mode-taking function in test_modes.py.
    with pytest.raises(ValueError):
        max_supported_nodes("sdn", 0.0, 15_000.0, OverheadParams(), _generator(), 5.5)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CapacityGains)])
@pytest.mark.parametrize("bad, message", [
    (math.nan, "must be finite"), (math.inf, "must be finite"), (-0.5, "must be"),
], ids=["nan", "inf", "negative"])
def test_capacity_gains_reject_bad_values(name, bad, message):
    # A NaN gain used to make clustered_sliced_capacity return nan.
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        CapacityGains(**{name: bad})
    if name.endswith("share"):
        with pytest.raises(ValueError, match=rf"^{name} must be within \[0, 1\]$"):
            CapacityGains(**{name: 1.5})
    else:
        assert clustered_sliced_capacity(1.0, CapacityGains(**{name: 3.0})) > 0.0
