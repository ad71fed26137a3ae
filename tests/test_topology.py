"""Graph generation, mobility, distance, degree, path, and clustering tests."""

import dataclasses
import heapq
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnmanet import topology
from sdnmanet.topology import (
    NodeState,
    NoRouteError,
    Topology,
    cluster,
    degree,
    distance,
    generate_erdos_renyi,
    shortest_path,
    step_mobility,
)


def brute_force_min_cost(t, src, dst, weights):
    """Independent oracle: enumerate every simple path by DFS."""
    best = None
    entry = {i: weights[i] * degree(t, i) for i in range(len(t.nodes))}

    def walk(node, visited, path, cost):
        nonlocal best
        if node == dst:
            if best is None or (cost, tuple(path)) < best:
                best = (cost, tuple(path))
            return
        for nxt in t.neighbors(node):
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                walk(nxt, visited, path, cost + entry[nxt])
                path.pop()
                visited.remove(nxt)

    walk(src, {src}, [src], entry[src])
    return best


def line_topology(weights=None):
    """A - B - C with unit edge weights at fixed positions."""
    nodes = [
        NodeState(position=(float(i), 0.0), velocity=(0.0, 0.0),
                  capacity_bps=1000.0, waypoint=(float(i), 0.0))
        for i in range(3)
    ]
    edges = ((0, 1), (1, 2))
    return Topology(nodes=nodes, edges=edges, area=(10.0, 10.0))


def diamond_topology():
    """4-cycle A-B-C plus A-D-C; every node has degree 2."""
    nodes = [
        NodeState(position=(float(i), 0.0), velocity=(0.0, 0.0),
                  capacity_bps=1000.0, waypoint=(float(i), 0.0))
        for i in range(4)
    ]
    edges = ((0, 1), (0, 3), (1, 2), (2, 3))  # A=0, B=1, C=2, D=3
    return Topology(nodes=nodes, edges=edges, area=(10.0, 10.0))


# ------------------------------------------------------------- construction

@pytest.mark.parametrize("edges, message", [
    (((1, 1),), "self-loop on node 1"),
    (((0, 3),), "invalid endpoints"),
    (((1, 0),), "invalid endpoints"),
    (((0, 1), (1, 2), (0, 1)), "duplicate edge"),
], ids=["self-loop", "out-of-range", "reversed", "duplicate"])
def test_topology_rejects_malformed_edges(edges, message):
    nodes = line_topology().nodes
    with pytest.raises(ValueError, match=message):
        Topology(nodes=nodes, edges=edges, area=(10.0, 10.0))


def test_topology_fields_cannot_be_reassigned():
    # The adjacency is built from the edges once; a reassigned field would
    # leave degree, neighbors and shortest_path on the old graph.
    t = generate_erdos_renyi(5, 1.0, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.edges = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.nodes = []
    assert len(t.edges) == 10 and degree(t, 0) == 4


def test_topology_nodes_cannot_grow():
    # A node appended after construction would have no adjacency entry.
    nodes = list(line_topology().nodes)
    t = Topology(nodes=nodes, edges=((0, 1),), area=(10.0, 10.0))
    nodes.append(nodes[0])  # the caller's list is copied, not kept
    stepped = step_mobility(generate_erdos_renyi(5, 1.0, seed=1), 1.0, (1.0, 2.0), seed=2)
    for topo in (t, generate_erdos_renyi(5, 1.0, seed=1), stepped):
        assert isinstance(topo.nodes, tuple)
        with pytest.raises(AttributeError):
            topo.nodes.append(topo.nodes[0])
    assert len(t.nodes) == 3 and degree(t, 2) == 0


# ---------------------------------------------------------------- generation

def test_single_node_has_no_edges():
    assert generate_erdos_renyi(1, 0.5, seed=7).edges == ()


def test_full_probability_gives_complete_graph():
    t = generate_erdos_renyi(5, 1.0, seed=1)
    assert len(t.edges) == 10
    assert all(degree(t, i) == 4 for i in range(5))


def test_zero_probability_gives_empty_graph():
    assert generate_erdos_renyi(10, 0.0, seed=3).edges == ()


def test_generation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_erdos_renyi(0, 0.5, seed=1)
    with pytest.raises(ValueError):
        generate_erdos_renyi(5, -0.1, seed=1)
    with pytest.raises(ValueError):
        generate_erdos_renyi(5, 1.1, seed=1)


@pytest.mark.parametrize(
    "bad", [-5.0, 0.0, math.nan, math.inf], ids=["negative", "zero", "nan", "inf"]
)
@pytest.mark.parametrize("side", ["width", "height"])
def test_generation_rejects_a_bad_area_side(side, bad):
    # A negative width used to place nodes at negative x, and a NaN one at x = nan.
    area = (bad, 10.0) if side == "width" else (10.0, bad)
    with pytest.raises(ValueError, match=f"area {side} must be positive and finite"):
        generate_erdos_renyi(3, 1.0, seed=1, area=area)


def test_edge_count_matches_binomial_statistics():
    # mean edges = p * n(n-1)/2 = 995 at n=200, p=0.05; the 100-seed sample
    # mean must sit within 3 standard errors.
    counts = [len(generate_erdos_renyi(200, 0.05, seed=s).edges) for s in range(100)]
    mean = sum(counts) / len(counts)
    stderr = math.sqrt(19_900 * 0.05 * 0.95 / len(counts))
    assert abs(mean - 995.0) <= 3 * stderr


def test_generation_is_deterministic():
    a = generate_erdos_renyi(60, 0.1, seed=123)
    b = generate_erdos_renyi(60, 0.1, seed=123)
    assert a == b
    c = generate_erdos_renyi(60, 0.1, seed=124)
    assert a != c


def test_positions_fall_inside_area():
    t = generate_erdos_renyi(50, 0.05, seed=9, area=(300.0, 200.0))
    for node in t.nodes:
        assert 0.0 <= node.position[0] <= 300.0
        assert 0.0 <= node.position[1] <= 200.0


def test_handshake_lemma_on_random_graphs():
    for s in range(20):
        t = generate_erdos_renyi(40, 0.15, seed=s)
        assert sum(degree(t, i) for i in range(40)) == 2 * len(t.edges)


# ------------------------------------------------------------------ mobility

def test_zero_speed_range_leaves_positions_unchanged():
    t = generate_erdos_renyi(20, 0.2, seed=5)
    stepped = step_mobility(t, 1.0, (0.0, 0.0), seed=11)
    assert [n.position for n in stepped.nodes] == [n.position for n in t.nodes]


def test_linear_motion_toward_waypoint():
    node = NodeState(position=(0.0, 0.0), velocity=(5.0, 0.0),
                     capacity_bps=1000.0, waypoint=(10.0, 0.0))
    t = Topology(nodes=[node], edges=(), area=(20.0, 20.0))
    stepped = step_mobility(t, 1.0, (1.0, 1.0), seed=2)
    assert stepped.nodes[0].position == (5.0, 0.0)


def test_mobility_preserves_nodes_and_bounds():
    t = generate_erdos_renyi(15, 0.2, seed=3, area=(100.0, 80.0))
    for step in range(1000):
        t = step_mobility(t, 1.0, (1.0, 10.0), seed=step)
    assert len(t.nodes) == 15
    for node in t.nodes:
        assert 0.0 <= node.position[0] <= 100.0
        assert 0.0 <= node.position[1] <= 80.0


def test_mobility_recomputes_edge_weights_from_distances():
    t = generate_erdos_renyi(12, 0.4, seed=8)
    stepped = step_mobility(t, 2.0, (1.0, 5.0), seed=21)
    for (a, b), w in stepped.edge_weight.items():
        assert w == pytest.approx(max(distance(stepped, a, b), 1e-9))


def test_mobility_checks_the_graph_only_at_construction(monkeypatch):
    checked = []
    check = Topology.__post_init__

    def counted(t):
        checked.append(len(t.nodes))
        check(t)

    monkeypatch.setattr(Topology, "__post_init__", counted)
    t = generate_erdos_renyi(30, 0.2, seed=4)
    for step in range(5):
        t = step_mobility(t, 1.0, (1.0, 5.0), seed=step)
    assert checked == [30]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 15),
    p=st.floats(0.0, 1.0),
    area=st.tuples(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0)),
    speeds=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2).map(sorted),
    dt=st.floats(0.01, 100.0),
    steps=st.integers(1, 10),
    seed=st.integers(0, 2**32),
)
def test_topology_invariants_hold_under_mobility(n, p, area, speeds, dt, steps, seed):
    start = generate_erdos_renyi(n, p, seed, area=area)
    t = start
    for k in range(steps):
        t = step_mobility(t, dt, tuple(speeds), seed + k)
    assert t.edges == start.edges
    fresh = Topology(nodes=t.nodes, edges=t.edges, area=area)
    assert [t.neighbors(i) for i in range(n)] == [fresh.neighbors(i) for i in range(n)]
    for node in t.nodes:
        assert 0.0 <= node.position[0] <= area[0]
        assert 0.0 <= node.position[1] <= area[1]
    assert t.edge_weight == {(a, b): max(distance(t, a, b), 1e-9) for a, b in t.edges}
    assert start == generate_erdos_renyi(n, p, seed, area=area)  # stepping left it alone


def test_mobility_rejects_bad_arguments():
    t = generate_erdos_renyi(3, 0.5, seed=1)
    with pytest.raises(ValueError):
        step_mobility(t, 0.0, (1.0, 2.0), seed=1)
    with pytest.raises(ValueError):
        step_mobility(t, 1.0, (3.0, 2.0), seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_mobility_rejects_non_finite_dt(bad):
    # A NaN step used to put every node at (nan, nan).
    with pytest.raises(ValueError, match="dt must be finite"):
        step_mobility(generate_erdos_renyi(3, 1.0, seed=1), bad, (1.0, 2.0), seed=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_mobility_rejects_non_finite_min_speed(bad):
    with pytest.raises(ValueError, match="min speed must be finite"):
        step_mobility(generate_erdos_renyi(3, 1.0, seed=1), 1.0, (bad, math.inf), seed=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_mobility_rejects_non_finite_max_speed(bad):
    with pytest.raises(ValueError, match="max speed must be finite"):
        step_mobility(generate_erdos_renyi(3, 1.0, seed=1), 1.0, (1.0, bad), seed=2)


def dataclass_step_mobility(t, dt, speed_range, seed):
    """Oracle: the mobility step as first written, keyword-built nodes included."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    lo, hi = speed_range
    if not 0.0 <= lo <= hi:
        raise ValueError(f"speed range must satisfy 0 <= min <= max, got {speed_range}")
    rng = random.Random(seed)
    width, height = t.area

    def uniform_in(low, high):
        return low + (high - low) * rng.random()

    def euclid(p, q):
        return math.hypot(p[0] - q[0], p[1] - q[1])

    moved = []
    for node in t.nodes:
        pos, vel, wp = node.position, node.velocity, node.waypoint
        speed = math.hypot(*vel)
        dist_to_wp = euclid(pos, wp)
        if speed * dt >= dist_to_wp:
            pos = wp
            wp = (uniform_in(0.0, width), uniform_in(0.0, height))
            speed = uniform_in(lo, hi) if hi > lo else lo
            leg = euclid(pos, wp)
            if speed > 0.0 and leg > 0.0:
                vel = ((wp[0] - pos[0]) / leg * speed, (wp[1] - pos[1]) / leg * speed)
            else:
                vel = (0.0, 0.0)
        else:
            pos = (pos[0] + vel[0] * dt, pos[1] + vel[1] * dt)
        pos = (min(max(pos[0], 0.0), width), min(max(pos[1], 0.0), height))
        moved.append(NodeState(position=pos, velocity=vel,
                               capacity_bps=node.capacity_bps, waypoint=wp))
    return Topology(nodes=moved, edges=t.edges, area=t.area)


def exact_nodes(t):
    """Every coordinate of every node as float.hex, so -0.0 and NaN count."""
    return [tuple(float.hex(v) for v in (*node.position, *node.velocity, *node.waypoint))
            + (float.hex(node.capacity_bps),) for node in t.nodes]


_coordinate = st.one_of(st.floats(-200.0, 1200.0),
                        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
_point = st.tuples(_coordinate, _coordinate)
_speeds = st.one_of(
    st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2).map(lambda s: tuple(sorted(s))),
    st.floats(0.0, 50.0).map(lambda v: (v, v)),    # lo == hi
    st.floats(0.0, 50.0).map(lambda v: (0.0, v)),  # lo == 0
)


@settings(max_examples=60, deadline=None)
@given(
    world=st.one_of(
        # a generated world: nodes at rest inside the area
        st.tuples(st.integers(1, 20), st.floats(0.0, 1.0), st.integers(0, 2**32)),
        # hand-built nodes anywhere, moving anyhow, signed zeros and NaN included
        st.lists(st.tuples(_point, _point, _point), min_size=1, max_size=12),
    ),
    area=st.one_of(st.sampled_from([(1000.0, 1000.0), (50.0, 2000.0), (1.0, 1.0)]),
                   st.tuples(st.floats(0.5, 1000.0), st.floats(0.5, 1000.0))),
    speeds=_speeds,
    dt=st.one_of(st.sampled_from([0.1, 1.0, 2.5]), st.floats(0.01, 100.0)),
    seed=st.integers(0, 2**32),
)
def test_light_node_stepping_matches_the_dataclass_step(world, area, speeds, dt, seed):
    if isinstance(world, tuple):
        n, p, world_seed = world
        t = generate_erdos_renyi(n, p, world_seed, area=area)
    else:
        nodes = [NodeState(position=pos, velocity=vel, capacity_bps=1000.0, waypoint=wp)
                 for pos, vel, wp in world]
        t = Topology(nodes=nodes, edges=(), area=area)
    fast = slow = t
    for k in range(30):
        fast = step_mobility(fast, dt, speeds, seed + k)
        slow = dataclass_step_mobility(slow, dt, speeds, seed + k)
        assert exact_nodes(fast) == exact_nodes(slow)


# ------------------------------------------------------------------ distance

def test_distance_345_triangle():
    nodes = [
        NodeState(position=(0.0, 0.0), velocity=(0.0, 0.0), capacity_bps=1.0, waypoint=(0.0, 0.0)),
        NodeState(position=(3.0, 4.0), velocity=(0.0, 0.0), capacity_bps=1.0, waypoint=(3.0, 4.0)),
    ]
    t = Topology(nodes=nodes, edges=(), area=(10.0, 10.0))
    assert distance(t, 0, 1) == 5.0
    assert distance(t, 1, 0) == 5.0
    assert distance(t, 0, 0) == 0.0


def test_distance_triangle_inequality():
    rng = random.Random(99)
    t = generate_erdos_renyi(30, 0.1, seed=77)
    for _ in range(200):
        a, b, c = rng.sample(range(30), 3)
        assert distance(t, a, c) <= distance(t, a, b) + distance(t, b, c) + 1e-9


def test_distance_invalid_node_raises():
    t = generate_erdos_renyi(3, 0.5, seed=1)
    with pytest.raises(IndexError):
        distance(t, 0, 3)
    with pytest.raises(IndexError):
        degree(t, -1)


# ---------------------------------------------------------------- path costs

def test_isolated_node_degree_zero():
    t = generate_erdos_renyi(4, 0.0, seed=1)
    assert degree(t, 2) == 0


def test_shortest_path_line():
    t = line_topology()
    path, cost = shortest_path(t, 0, 2, {0: 1.0, 1: 1.0, 2: 1.0})
    assert path == [0, 1, 2]
    assert cost == 4.0  # degrees 1 + 2 + 1


def test_shortest_path_prefers_light_detour():
    t = diamond_topology()
    weights = {0: 1.0, 1: 3.0, 2: 1.0, 3: 1.0}
    path, cost = shortest_path(t, 0, 2, weights)
    assert path == [0, 3, 2]
    assert cost == 6.0  # 2 + 2 + 2, avoiding the weight-3 node


def test_shortest_path_degenerate_source_equals_destination():
    t = line_topology()
    path, cost = shortest_path(t, 1, 1, {0: 1.0, 1: 2.0, 2: 1.0})
    assert path == [1]
    assert cost == 4.0  # w=2 times degree 2


def test_shortest_path_unreachable_raises():
    t = generate_erdos_renyi(4, 0.0, seed=1)
    with pytest.raises(NoRouteError):
        shortest_path(t, 0, 3, {i: 1.0 for i in range(4)})


def test_shortest_path_requires_full_weight_cover():
    t = line_topology()
    with pytest.raises(ValueError):
        shortest_path(t, 0, 2, {0: 1.0, 1: 1.0})


@pytest.mark.parametrize("bad, message", [
    (math.nan, "node_weight\\[2\\] must be finite"),
    (math.inf, "node_weight\\[2\\] must be finite"),
    (-math.inf, "node_weight\\[2\\] must be positive"),
    (0.0, "node_weight\\[2\\] must be positive"),
])
def test_shortest_path_rejects_non_finite_and_non_positive_weights(bad, message):
    # A NaN weight used to come back as the cost: ([0, 2, 5], nan).
    t = generate_erdos_renyi(6, 0.6, seed=3)
    weights = {i: 1.0 for i in range(6)}
    weights[2] = bad
    with pytest.raises(ValueError, match=message):
        shortest_path(t, 0, 5, weights)


def test_shortest_path_matches_exhaustive_oracle():
    rng = random.Random(4242)
    for trial in range(100):
        n = rng.randint(2, 8)
        t = generate_erdos_renyi(n, rng.uniform(0.3, 0.9), seed=trial)
        random_weights = {i: rng.uniform(0.1, 5.0) for i in range(n)}
        src, dst = rng.sample(range(n), 2)
        # Unit weights tie many routes, so brute force checks the tie-break.
        for weights in (random_weights, {i: 1.0 for i in range(n)}):
            expected = brute_force_min_cost(t, src, dst, weights)
            if expected is None:
                with pytest.raises(NoRouteError):
                    shortest_path(t, src, dst, weights)
                continue
            path, cost = shortest_path(t, src, dst, weights)
            assert cost == pytest.approx(expected[0], rel=1e-12)
            assert tuple(path) == expected[1]  # lexicographic tie-break agrees


def test_shortest_path_breaks_rounded_cost_ties_by_node_sequence():
    # [0, 3] (cost 1) pops before [0, 1] (cost 2), but adding node 2's entry
    # of 2**54 rounds both routes to 2**54, so [0, 1, 2], pushed second, wins.
    t = diamond_topology()
    weights = {0: 0.25, 1: 0.75, 2: 2.0**53, 3: 0.25}
    assert shortest_path(t, 0, 2, weights) == ([0, 1, 2], 2.0**54)


def heap_of_paths_shortest_path(t, src, dst, node_weight):
    """Oracle: the search as first written, pushing every unsettled neighbour."""
    n = len(t.nodes)
    entry = [node_weight[i] * degree(t, i) for i in range(n)]
    heap = [(entry[src], (src,))]
    settled = set()
    while heap:
        cost, path = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == dst:
            return list(path), cost
        for v in t.neighbors(u):
            if v not in settled:
                heapq.heappush(heap, (cost + entry[v], path + (v,)))
    raise NoRouteError(f"no route from {src} to {dst}")


def route_or_none(search, t, src, dst, weights):
    """The route, its cost and the cost's type (int weights give int costs)."""
    try:
        path, cost = search(t, src, dst, weights)
    except NoRouteError:
        return None
    return path, cost, type(cost)


def weight_lists(size):
    return st.one_of(
        st.just("unit"),  # every cost tie broken by the node sequence alone
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=size, max_size=size),
        # a 2**53 weight rounds unequal sums to equal costs
        st.lists(st.sampled_from([0.25, 0.75, 1.0, 2.0**53]), min_size=size, max_size=size),
        st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size),
        # whole-number costs, which the bidirectional search takes
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=size, max_size=size),
        # whole numbers whose entry sums cross 2**53, on both sides of the bound
        st.lists(st.sampled_from([1.0, 2.0, 3.0, 2.0**51, 2.0**52]), min_size=size, max_size=size),
        st.lists(st.integers(1, 4), min_size=size, max_size=size),  # Python ints
    )


def assert_every_destination_matches(n, p, graph_seed, weights, src):
    t = generate_erdos_renyi(n, p, graph_seed)
    w = {i: 1.0 if weights == "unit" else weights[i] for i in range(n)}
    src %= n
    for dst in range(n):  # src itself and, on sparse graphs, unreachable nodes included
        expected = route_or_none(heap_of_paths_shortest_path, t, src, dst, w)
        assert route_or_none(shortest_path, t, src, dst, w) == expected


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    # sparse values leave graphs disconnected; dense ones give many equal-hop paths
    p=st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.2, 1.0]), st.floats(0.0, 1.0)),
    graph_seed=st.integers(0, 2**32),
    weights=weight_lists(40),
    src=st.integers(0, 39),
)
def test_pruned_search_matches_the_heap_of_paths_search(n, p, graph_seed, weights, src):
    assert_every_destination_matches(n, p, graph_seed, weights, src)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(41, 150),
    p=st.sampled_from([0.01, 0.02, 0.03, 0.05]),  # the sweep's sparse band
    graph_seed=st.integers(0, 2**32),
    weights=weight_lists(150),
    src=st.integers(0, 149),
)
def test_pruned_search_matches_the_heap_of_paths_search_on_larger_graphs(
    n, p, graph_seed, weights, src
):
    assert_every_destination_matches(n, p, graph_seed, weights, src)


def route_or_error(t, src, dst, weights=None):
    """The route and cost of ``shortest_path``, or the type and text of its error."""
    try:
        if weights is None:
            return shortest_path(t, src, dst)
        return shortest_path(t, src, dst, weights)
    except (NoRouteError, IndexError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    # sparse values leave isolated nodes (entry 0) and unreachable pairs
    p=st.one_of(st.sampled_from([0.0, 0.03, 0.1, 1.0]), st.floats(0.0, 1.0)),
    graph_seed=st.integers(0, 2**32),
    src=st.integers(-1, 60),
)
def test_default_unit_weights_match_explicit_unit_weights(n, p, graph_seed, src):
    t = generate_erdos_renyi(n, p, graph_seed)
    unit = {i: 1.0 for i in range(n)}
    for dst in range(-1, n + 1):  # src itself, unreachable nodes and both out-of-range indices
        default = route_or_error(t, src, dst)
        assert default == route_or_error(t, src, dst, unit)
        if isinstance(default[0], list):
            assert type(default[1]) is int


def test_default_unit_weights_on_an_isolated_node_and_a_line():
    line = line_topology()
    t = Topology(nodes=line.nodes + line.nodes[:1], edges=line.edges, area=line.area)
    assert shortest_path(t, 3, 3) == ([3], 0)  # node 3 is isolated: entry 0
    path, cost = shortest_path(t, 0, 2)
    assert (path, cost, type(cost)) == ([0, 1, 2], 4, int)
    with pytest.raises(NoRouteError, match="no route from 0 to 3"):
        shortest_path(t, 0, 3)
    with pytest.raises(IndexError, match="node 4 not in topology of 4 nodes"):
        shortest_path(t, 0, 4)


@pytest.mark.parametrize("edges, src, dst, route, pushes", [
    # Star with centre 0 (degree 8): once the backward search settles the
    # centre, its other leaves would cost 9 + 9 > mu = 10 and never pop.
    (tuple((0, leaf) for leaf in range(1, 9)), 1, 2, ([1, 0, 2], 10), [(1, 0), (9, 0)]),
    # Line 0-1-2-3: leaf 0 behind the source would cost 3, and 3 plus the
    # backward top of 3 exceeds mu = 5, so the forward search pushes nothing.
    (((0, 1), (1, 2), (2, 3)), 1, 3, ([1, 2, 3], 5), [(1, 2), (3, 1)]),
], ids=["star", "line"])
def test_search_pushes_no_entry_that_cannot_pop(monkeypatch, edges, src, dst, route, pushes):
    pushed = []

    def push(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    n = 1 + max(b for _, b in edges)
    t = Topology(nodes=line_topology().nodes[:1] * n, edges=edges, area=(10.0, 10.0))
    monkeypatch.setattr(topology, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
    assert shortest_path(t, src, dst) == route
    assert sorted(pushed) == pushes


# ---------------------------------------------------------------- clustering

def test_single_cluster_holds_everyone():
    t = generate_erdos_renyi(12, 0.1, seed=6)
    c = cluster(t, 1, seed=5)
    assert set(c.assignments.values()) == {0}
    assert len(c.heads) == 1


def test_one_cluster_per_node():
    t = generate_erdos_renyi(9, 0.2, seed=14)
    c = cluster(t, 9, seed=3)
    assert sorted(c.assignments.values()) == list(range(9))
    assert sorted(c.heads) == list(range(9))
    for node, assigned in c.assignments.items():
        assert c.heads[assigned] == node


def test_cluster_count_exceeding_nodes_raises():
    t = generate_erdos_renyi(4, 0.5, seed=1)
    with pytest.raises(ValueError):
        cluster(t, 5, seed=1)


def test_cluster_assignments_are_nearest_centroid_at_convergence():
    for seed in range(10):
        t = generate_erdos_renyi(40, 0.05, seed=seed)
        c = cluster(t, 4, seed=seed + 100)
        centroids = {}
        for idx in range(4):
            members = [i for i, a in c.assignments.items() if a == idx]
            assert members, "every cluster stays populated"
            centroids[idx] = (
                sum(t.nodes[i].position[0] for i in members) / len(members),
                sum(t.nodes[i].position[1] for i in members) / len(members),
            )
        for i, assigned in c.assignments.items():
            px, py = t.nodes[i].position
            own = (px - centroids[assigned][0]) ** 2 + (py - centroids[assigned][1]) ** 2
            for idx, (cx, cy) in centroids.items():
                assert own <= (px - cx) ** 2 + (py - cy) ** 2 + 1e-9


def test_cluster_heads_belong_to_their_cluster():
    t = generate_erdos_renyi(25, 0.1, seed=31)
    c = cluster(t, 5, seed=8)
    for idx, head in enumerate(c.heads):
        assert c.assignments[head] == idx


def test_cluster_is_deterministic():
    t = generate_erdos_renyi(30, 0.1, seed=2)
    assert cluster(t, 3, seed=17) == cluster(t, 3, seed=17)
