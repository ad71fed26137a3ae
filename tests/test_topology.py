"""Graph generation, mobility, distance, degree, and path tests."""

import dataclasses
import heapq
import inspect
import itertools
import math
import random
import statistics
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdnmanet import topology
from sdnmanet.rng import uniform_in
from sdnmanet.topology import (
    NoRouteError,
    Topology,
    distance,
    generate_erdos_renyi,
    route_costs,
    shortest_path,
    step_mobility,
)
from sdnmanet.routing import PathCostWeights, sdn_path_cost


def brute_force_min_cost(t, src, dst, weights):
    """Independent oracle: enumerate every simple path by DFS."""
    best = None
    entry = {i: weights[i] * len(t._adjacency[i]) for i in range(len(t.nodes))}

    def walk(node, visited, path, cost):
        nonlocal best
        if node == dst:
            if best is None or (cost, tuple(path)) < best:
                best = (cost, tuple(path))
            return
        for nxt in t._adjacency[node]:
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                walk(nxt, visited, path, cost + entry[nxt])
                path.pop()
                visited.remove(nxt)

    walk(src, {src}, [src], entry[src])
    return best


def from_records(records, edges=(), area=(10.0, 10.0)):
    """A topology whose columns are read off ``(position, velocity, waypoint)`` records."""
    return Topology(*zip(*records), edges=edges, area=area)


def line_topology(weights=None):
    """A - B - C with unit edge weights at fixed positions."""
    nodes = [((float(i), 0.0), (0.0, 0.0), (float(i), 0.0)) for i in range(3)]
    return from_records(nodes, ((0, 1), (1, 2)))


def diamond_topology():
    """4-cycle A-B-C plus A-D-C; every node has degree 2."""
    nodes = [((float(i), 0.0), (0.0, 0.0), (float(i), 0.0)) for i in range(4)]
    return from_records(nodes, ((0, 1), (0, 3), (1, 2), (2, 3)))  # A=0, B=1, C=2, D=3


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
        from_records(nodes, edges)


COLUMNS = ("positions", "velocities", "waypoints")


@pytest.mark.parametrize("column, message", [
    ("positions", "velocities has 3 entries, positions has 2"),
    ("velocities", "velocities has 2 entries, positions has 3"),
    ("waypoints", "waypoints has 2 entries, positions has 3"),
])
def test_topology_rejects_columns_of_different_lengths(column, message):
    t = line_topology()
    columns = {name: getattr(t, name) for name in COLUMNS}
    columns[column] = columns[column][:2]  # 2 entries against 3
    with pytest.raises(ValueError) as raised:
        Topology(**columns, edges=(), area=t.area)
    assert str(raised.value) == message


def test_records_round_trip_through_the_columns():
    records = [((1.5, -0.0), (0.25, 3.0), (9.0, 2.0)),
               ((0.0, 4.0), (0.0, 0.0), (0.0, 4.0))]
    t = from_records(records, ((0, 1),))
    assert all(type(node) is tuple for node in t.nodes)
    assert t.nodes == tuple(records) and hash(t.nodes) == hash(tuple(records))
    again = from_records(t.nodes, t.edges)
    assert again == t and hash(again) == hash(t)
    assert t.positions == ((1.5, -0.0), (0.0, 4.0)) and t.waypoints == ((9.0, 2.0), (0.0, 4.0))


def test_topology_fields_cannot_be_reassigned():
    # The adjacency is built from the edges once; a reassigned field would
    # leave degree, neighbors and shortest_path on the old graph.
    t = generate_erdos_renyi(5, 1.0, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.edges = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.nodes = []
    assert len(t.edges) == 10 and len(t._adjacency[0]) == 4


def test_topology_nodes_cannot_grow():
    # A node appended after construction would have no adjacency entry.
    line = line_topology()
    columns = [list(getattr(line, name)) for name in COLUMNS]
    t = Topology(*columns, edges=((0, 1),), area=(10.0, 10.0))
    for column in columns:
        column.append(column[0])  # the caller's lists are copied, not kept
    stepped = step_mobility(generate_erdos_renyi(5, 1.0, seed=1), 1.0, (1.0, 2.0), seed=2)
    for topo in (t, generate_erdos_renyi(5, 1.0, seed=1), stepped):
        for column in [topo.nodes] + [getattr(topo, name) for name in COLUMNS]:
            assert isinstance(column, tuple)
            with pytest.raises(AttributeError):
                column.append(column[0])
    assert len(t.nodes) == len(t.positions) == 3 and t._adjacency[2] == ()


def per_edge_index(n, edges):
    """Oracle: the construction check and index as first written, one edge at a time."""
    neighbors = {i: [] for i in range(n)}
    seen = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop on node {a}")
        if not (0 <= a < b < n):
            raise ValueError(f"edge ({a}, {b}) has invalid endpoints for n={n}")
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        neighbors[a].append(b)
        neighbors[b].append(a)
    return {i: tuple(sorted(neighbors[i])) for i in range(n)}, tuple(map(len, neighbors.values()))


@st.composite
def edge_lists(draw):
    """A valid edge set in any order, with up to three faults inserted anywhere."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    end = st.integers(-3, n + 2)  # negative and out-of-range ends included
    fault = st.one_of(end.map(lambda a: (a, a)), st.tuples(end, end))
    if edges:
        fault = st.one_of(fault, st.sampled_from(edges),  # a duplicate
                          st.sampled_from(edges).map(lambda e: (e[1], e[0])))  # reversed
    for bad in draw(st.lists(fault, max_size=3)):
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@settings(max_examples=300, deadline=None)
@given(case=edge_lists())
def test_construction_matches_the_per_edge_check(case):
    n, edges = case
    nodes = [((float(i), 0.0), (0.0, 0.0), (float(i), 0.0)) for i in range(n)]
    try:
        adjacency, degrees = per_edge_index(n, edges)
    except ValueError as expected:
        with pytest.raises(ValueError) as raised:
            from_records(nodes, tuple(edges))
        assert str(raised.value) == str(expected)
        return
    t = from_records(nodes, tuple(edges))
    assert t._adjacency == tuple(adjacency.values())
    assert t._degree == degrees


# ---------------------------------------------------------------- generation

def test_single_node_has_no_edges():
    assert generate_erdos_renyi(1, 0.5, seed=7).edges == ()


def test_full_probability_gives_complete_graph():
    t = generate_erdos_renyi(5, 1.0, seed=1)
    assert len(t.edges) == 10
    assert all(len(t._adjacency[i]) == 4 for i in range(5))
    for n in (1, 2, 3, 17, 60):  # every pair in lexicographic order, an int p included
        for p in (1.0, 1):
            assert generate_erdos_renyi(n, p, seed=n).edges == tuple(itertools.combinations(range(n), 2))


def test_zero_probability_gives_empty_graph():
    for n in (1, 2, 10, 60):
        assert generate_erdos_renyi(n, 0.0, seed=3).edges == ()


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


def test_mean_edge_length_matches_the_uniform_square_constant():
    # Edges are drawn independently of the positions, so every edge joins two
    # uniform points: mean length (2 + sqrt(2) + 5 ln(1 + sqrt(2))) / 15 * side,
    # 521.405 m on a 1000 m square (Santalo). Edges of one graph share nodes,
    # so the standard error comes from the per-seed means. Seeds 0-199 were
    # fixed before the first run; the tolerance is 4 standard errors, about 4 m.
    side, seeds = 1000.0, range(200)
    expected = (2.0 + math.sqrt(2.0) + 5.0 * math.log(1.0 + math.sqrt(2.0))) / 15.0 * side
    means = []
    for seed in seeds:
        t = generate_erdos_renyi(200, 0.05, seed, area=(side, side))
        means.append(statistics.fmean(math.dist(t.positions[a], t.positions[b]) for a, b in t.edges))
    stderr = statistics.stdev(means) / math.sqrt(len(means))
    assert stderr < 2.0
    assert abs(statistics.fmean(means) - expected) <= 4 * stderr


def test_generation_is_deterministic():
    a = generate_erdos_renyi(60, 0.1, seed=123)
    b = generate_erdos_renyi(60, 0.1, seed=123)
    assert a == b
    c = generate_erdos_renyi(60, 0.1, seed=124)
    assert a != c


def test_positions_fall_inside_area():
    t = generate_erdos_renyi(50, 0.05, seed=9, area=(300.0, 200.0))
    for x, y in t.positions:
        assert 0.0 <= x <= 300.0
        assert 0.0 <= y <= 200.0


def test_handshake_lemma_on_random_graphs():
    for s in range(20):
        t = generate_erdos_renyi(40, 0.15, seed=s)
        assert sum(len(t._adjacency[i]) for i in range(40)) == 2 * len(t.edges)


def per_pair_erdos_renyi(n, p, seed, area=(1000.0, 1000.0)):
    """Oracle: G(n, p) as first written, one draw per node pair after the positions."""
    rng = random.Random(seed)
    nodes = []
    for _ in range(n):
        pos = (uniform_in(rng, 0.0, area[0]), uniform_in(rng, 0.0, area[1]))
        nodes.append((pos, (0.0, 0.0), pos))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return from_records(nodes, tuple(edges), area)


def skip_walk_edges(n, p, seed):
    """Oracle for the pair walk: the same geometric gaps, indexed into a list of all pairs."""
    rng = random.Random(seed)
    for _ in range(2 * n):  # the positions' draws
        rng.random()
    pairs = list(itertools.combinations(range(n), 2))
    if p == 0.0 or p == 1.0:
        return tuple(pairs) if p == 1.0 else ()
    edges, k = [], -1
    while True:
        gap = math.log(1.0 - rng.random()) / math.log1p(-p)
        if k + 1 + gap >= len(pairs):
            return tuple(edges)
        k += 1 + math.floor(gap)
        edges.append(pairs[k])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 45),
    p=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0 - 2**-53, 1.0])),
    seed=st.integers(0, 2**32),
    area=st.tuples(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0)),
)
def test_skip_sampling_keeps_positions_and_walks_every_pair(n, p, seed, area):
    t = generate_erdos_renyi(n, p, seed, area=area)
    assert exact_columns(t) == exact_columns(per_pair_erdos_renyi(n, p, seed, area=area))
    assert t.edges == skip_walk_edges(n, p, seed)
    assert list(t.edges) == sorted(set(t.edges))  # unique, a < b, lexicographic


@pytest.mark.parametrize("p", [5e-324, 1e-300])
@pytest.mark.parametrize("n", [2, 50, 1000])
def test_vanishing_probability_gives_no_edges_without_overflow(n, p):
    # The gap log(1 - u) / log1p(-p) overflows to inf at p = 5e-324; it must
    # end the walk before any int() conversion.
    for seed in range(5):
        assert generate_erdos_renyi(n, p, seed).edges == ()


def test_edge_count_mean_and_variance_match_the_binomial():
    # Binomial(780, 0.1): mean 78, variance 70.2. Over 2000 seeds the sample
    # mean has standard error 0.19 and the sample variance about 2.2.
    pairs, p, seeds = 40 * 39 // 2, 0.1, 2000
    counts = [len(generate_erdos_renyi(40, p, seed=s).edges) for s in range(seeds)]
    mean = sum(counts) / seeds
    variance = sum((c - mean) ** 2 for c in counts) / (seeds - 1)
    assert abs(mean - pairs * p) <= 4 * math.sqrt(pairs * p * (1 - p) / seeds)
    assert abs(variance - pairs * p * (1 - p)) <= 4 * pairs * p * (1 - p) * math.sqrt(2 / (seeds - 1))


def test_every_pair_is_included_with_probability_p():
    # Chi-square over the 66 pairs of n = 12: each pair's inclusion count over
    # 3000 seeds is Binomial(3000, 0.3), independently of the others.
    n, p, seeds = 12, 0.3, 3000
    counts = dict.fromkeys(itertools.combinations(range(n), 2), 0)
    for s in range(seeds):
        for edge in generate_erdos_renyi(n, p, seed=s).edges:
            counts[edge] += 1
    chi2 = sum((c - seeds * p) ** 2 for c in counts.values()) / (seeds * p * (1 - p))
    df = len(counts)
    # Upper 1e-4 quantile of chi-square(df), Wilson-Hilferty: z = 3.719.
    critical = df * (1 - 2 / (9 * df) + 3.719 * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 < critical


# ------------------------------------------------------------------ mobility

def test_zero_speed_range_leaves_positions_unchanged():
    t = generate_erdos_renyi(20, 0.2, seed=5)
    stepped = step_mobility(t, 1.0, (0.0, 0.0), seed=11)
    assert stepped.positions == t.positions


def test_linear_motion_toward_waypoint():
    node = ((0.0, 0.0), (5.0, 0.0), (10.0, 0.0))
    t = from_records([node], area=(20.0, 20.0))
    stepped = step_mobility(t, 1.0, (1.0, 1.0), seed=2)
    assert stepped.positions == ((5.0, 0.0),) and stepped.nodes[0][0] == (5.0, 0.0)


def test_mobility_preserves_nodes_and_bounds():
    t = generate_erdos_renyi(15, 0.2, seed=3, area=(100.0, 80.0))
    for step in range(1000):
        t = step_mobility(t, 1.0, (1.0, 10.0), seed=step)
    assert len(t.nodes) == 15
    for x, y in t.positions:
        assert 0.0 <= x <= 100.0
        assert 0.0 <= y <= 80.0


def test_mobility_recomputes_edge_weights_from_distances():
    t = generate_erdos_renyi(12, 0.4, seed=8)
    stepped = step_mobility(t, 2.0, (1.0, 5.0), seed=21)
    for (a, b), w in stepped.edge_weight.items():
        assert w == pytest.approx(max(distance(stepped, a, b), 1e-9))


def test_mobility_checks_the_graph_only_at_construction(monkeypatch):
    checked = []
    check = Topology.__post_init__

    def counted(t):
        checked.append(len(t.positions))
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
    fresh = from_records(t.nodes, t.edges, area)
    assert [t._adjacency[i] for i in range(n)] == [fresh._adjacency[i] for i in range(n)]
    for x, y in t.positions:
        assert 0.0 <= x <= area[0]
        assert 0.0 <= y <= area[1]
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
    for pos, vel, wp in t.nodes:
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
        moved.append((pos, vel, wp))
    return from_records(moved, t.edges, t.area)


def exact_columns(t):
    """Every entry of every column as float.hex, so -0.0 and NaN count."""
    return [[(float.hex(x), float.hex(y)) for x, y in column]
            for column in (t.positions, t.velocities, t.waypoints)]


BORDER_WORLD = [  # (position, velocity, waypoint) on the border of a 100 x 50 area, some heading out
    ((0.0, 0.0), (-3.0, -4.0), (-30.0, -40.0)),
    ((100.0, 50.0), (2.0, 0.0), (300.0, 50.0)),
    ((0.0, 25.0), (0.0, 0.0), (0.0, 25.0)),
    ((100.0, 0.0), (0.0, -1.0), (100.0, 0.0)),
    ((50.0, 50.0), (0.0, 6.0), (50.0, 80.0)),
    ((37.5, 0.0), (-0.0, 0.0), (37.5, -0.0)),
]
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
@example(world=(20, 0.2, 3), area=(1000.0, 1000.0), speeds=(1.0, 5.0), dt=1e6, seed=17)  # every node arrives
@example(world=(20, 0.2, 3), area=(1000.0, 1000.0), speeds=(7.5, 7.5), dt=1.0, seed=17)  # lo == hi
@example(world=(20, 0.2, 3), area=(1000.0, 1000.0), speeds=(0.0, 0.0), dt=1.0, seed=17)  # lo == hi == 0
@example(world=BORDER_WORLD, area=(100.0, 50.0), speeds=(1.0, 20.0), dt=2.0, seed=17)
def test_light_node_stepping_matches_the_dataclass_step(world, area, speeds, dt, seed):
    if isinstance(world, tuple):
        n, p, world_seed = world
        t = generate_erdos_renyi(n, p, world_seed, area=area)
    else:
        t = from_records(world, area=area)
    fast = slow = t
    for k in range(30):
        fast = step_mobility(fast, dt, speeds, seed + k)
        slow = dataclass_step_mobility(slow, dt, speeds, seed + k)
        assert exact_columns(fast) == exact_columns(slow)


def test_a_long_step_lands_every_node_on_its_waypoint():
    # The dt of the every-node-arrives example above really does make every node arrive.
    t = generate_erdos_renyi(20, 0.2, seed=3)
    for k in range(30):
        stepped = step_mobility(t, 1e6, (1.0, 5.0), seed=17 + k)
        assert stepped.positions == t.waypoints and stepped.waypoints != t.waypoints
        t = stepped


def test_a_step_with_arrivals_leaves_its_input_unchanged():
    t = generate_erdos_renyi(25, 0.2, seed=6)  # at rest on their waypoints: every node arrives
    before = exact_columns(t)
    stepped = step_mobility(t, 1.0, (1.0, 5.0), seed=9)
    assert exact_columns(stepped) != before
    assert exact_columns(t) == before
    assert exact_columns(step_mobility(t, 1.0, (1.0, 5.0), seed=9)) == exact_columns(stepped)
    assert stepped.edges is t.edges


def is_walked(t):
    return "positions" in vars(t)


_worlds = st.one_of(
    st.tuples(st.integers(1, 20), st.floats(0.0, 1.0), st.integers(0, 2**32)),
    st.lists(st.tuples(_point, _point, _point), min_size=1, max_size=12),
)


def build_world(world, area):
    if isinstance(world, tuple):
        n, p, world_seed = world
        return generate_erdos_renyi(n, p, world_seed, area=area)
    return from_records(world, area=area)


@settings(max_examples=60, deadline=None)
@given(
    world=_worlds,
    area=st.sampled_from([(1000.0, 1000.0), (50.0, 2000.0), (1.0, 1.0)]),
    speeds=_speeds,
    dts=st.lists(st.one_of(st.sampled_from([0.1, 1.0, 2.5]), st.floats(0.01, 100.0)),
                 min_size=1, max_size=40),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_reading_a_chain_in_any_order_matches_reading_each_step(world, area, speeds, dts, seed, data):
    t = build_world(world, area)
    eager, lazy = [t], [t]
    for k, dt in enumerate(dts):
        eager.append(step_mobility(eager[-1], dt, speeds, seed + k))
        exact_columns(eager[-1])  # read as it is made: a walk of one step
        lazy.append(step_mobility(lazy[-1], dt, speeds, seed + k))
    assert not any(map(is_walked, lazy[1:]))
    order = data.draw(st.permutations(range(1, len(dts))))
    read = {}
    for i in [len(dts), *order]:  # the last one first
        read[i] = exact_columns(lazy[i])
        for j, topo in enumerate(lazy[1:], start=1):  # the others are as they were
            assert is_walked(topo) == (j in read)
        assert all(exact_columns(lazy[j]) == columns for j, columns in read.items())
    assert all(read[i] == exact_columns(eager[i]) for i in read)


def test_a_stepped_topology_seeds_one_generator_per_step_with_an_arrival(monkeypatch):
    t = generate_erdos_renyi(40, 0.1, seed=3)  # at rest on the waypoints: all arrive at step 0
    slow, arrival_seeds = [t], []
    for k in range(30):
        slow.append(dataclass_step_mobility(slow[-1], 1.0, (1.0, 20.0), 50 + k))
        if slow[-1].waypoints != slow[-2].waypoints:  # an arrival draws a new waypoint
            arrival_seeds.append(50 + k)
    assert len(arrival_seeds) == 16

    seeded = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(topology.random, "Random", CountingRandom)
    fast = t
    for k in range(30):
        fast = step_mobility(fast, 1.0, (1.0, 20.0), 50 + k)
    assert seeded == []
    assert exact_columns(fast) == exact_columns(slow[-1])
    assert sorted(seeded) == arrival_seeds
    fast.nodes, fast.edge_weight  # the columns are kept: no second walk
    assert sorted(seeded) == arrival_seeds

    seeded.clear()
    chain = [t]
    for k in range(30):
        chain.append(step_mobility(chain[-1], 1.0, (1.0, 20.0), 50 + k))
    for stepped, expected in zip(chain[1:], slow[1:]):  # build order: each read walks from the one before
        assert exact_columns(stepped) == exact_columns(expected)
    assert seeded == arrival_seeds  # 16 seedings; a walk from the unstepped world each time gives 231


def test_a_stepped_topology_compares_and_hashes_as_its_rebuilt_world():
    def stepped(steps):
        t = generate_erdos_renyi(30, 0.2, seed=8)
        for k in range(steps):
            t = step_mobility(t, 2.0, (1.0, 5.0), seed=40 + k)
        return t

    rebuilt = from_records(stepped(12).nodes, stepped(12).edges, (1000.0, 1000.0))
    assert stepped(12) == rebuilt and rebuilt == stepped(12)
    assert hash(stepped(12)) == hash(rebuilt)
    assert stepped(11) != rebuilt and stepped(13) != stepped(12)
    unread = stepped(12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        unread.positions = ()
    assert not is_walked(unread) and unread == rebuilt


def test_a_bad_seed_raises_at_the_first_read_that_reaches_an_arrival():
    moving = from_records([((0.0, 0.0), (1.0, 0.0), (10.0, 0.0))], area=(20.0, 20.0))
    never_arrives = step_mobility(moving, 1.0, (1.0, 2.0), seed=[1])
    assert never_arrives.positions == ((1.0, 0.0),)
    arrives = step_mobility(moving, 20.0, (1.0, 2.0), seed=[1])
    for _ in range(2):  # nothing is stored, so every read raises
        with pytest.raises(TypeError):
            arrives.positions


def stationary_waypoint_positions(count, side, seed):
    """Oracle: ``count`` draws from the random-waypoint stationary density on a square.

    A node seen at a random time is on a leg picked with probability
    proportional to its length, at a uniform point along it (Navidi & Camp,
    IEEE TMC 2004). A leg joins two uniform points, so a pair is accepted
    with probability |AB| / (sqrt(2) * side), the longest leg there is.
    """
    draw, hypot = random.Random(seed).random, math.hypot
    longest = math.sqrt(2.0) * side
    points = []
    while len(points) < count:
        ax, ay, bx, by = side * draw(), side * draw(), side * draw(), side * draw()
        if draw() * longest < hypot(bx - ax, by - ay):
            u = draw()
            points.append((ax + u * (bx - ax), ay + u * (by - ay)))
    return points


def test_long_run_positions_match_the_stationary_waypoint_density():
    # Horizon, seeds and tolerances were fixed before the first run. 4 worlds
    # of 1000 nodes walk 900 steps of 0.5 s at 10-20 m/s: a mean leg is
    # 521 m x ln 2 / 10 s/m = 36 s, so 450 s is about 12 legs. An arrival
    # ends its step, so a leg spends about half a step on its (uniform)
    # waypoint: 0.7% of the time, which moves the mean radius by about
    # 0.7% x 92 m = 0.6 m, a third of a standard error.
    side, speeds, dt, steps = 1000.0, (10.0, 20.0), 0.5, 900
    simulated = []
    for world in range(4):
        t = generate_erdos_renyi(1000, 0.0, world, area=(side, side))
        for k in range(steps):
            t = step_mobility(t, dt, speeds, seed=1000 * world + k)
        simulated.extend(t.positions)
    expected = stationary_waypoint_positions(100_000, side, seed=2004)
    radius = [[math.hypot(x - side / 2, y - side / 2) for x, y in sample]
              for sample in (simulated, expected)]
    (a, b), (na, nb) = map(statistics.fmean, radius), map(len, radius)
    var_a, var_b = (sum((r - m) ** 2 for r in rs) / (len(rs) - 1) for rs, m in zip(radius, (a, b)))
    stderr = math.sqrt(var_a / na + var_b / nb)
    assert abs(a - b) <= 4 * stderr
    # Uniform positions would fail: their mean radius, (sqrt 2 + ln(1 + sqrt 2)) / 6 x side.
    uniform = (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0 * side
    assert uniform - b > 8 * stderr
    # Radial histogram: 50 m rings out to 450 m, then the rest; two-sample
    # chi-square below the upper 1e-4 quantile of chi-square(9), Wilson-Hilferty.
    counts = [[0] * 10 for _ in radius]
    for count, rs in zip(counts, radius):
        for r in rs:
            count[min(int(r // 50.0), 9)] += 1
    chi2 = sum((ca * math.sqrt(nb / na) - cb * math.sqrt(na / nb)) ** 2 / (ca + cb)
               for ca, cb in zip(*counts))
    df = len(counts[0]) - 1
    assert chi2 < df * (1 - 2 / (9 * df) + 3.719 * math.sqrt(2 / (9 * df))) ** 3


# ------------------------------------------------------------------ distance

def test_distance_345_triangle():
    nodes = [((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)), ((3.0, 4.0), (0.0, 0.0), (3.0, 4.0))]
    t = from_records(nodes)
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


# ---------------------------------------------------------------- path costs

def test_isolated_node_degree_zero():
    t = generate_erdos_renyi(4, 0.0, seed=1)
    assert t._adjacency[2] == ()


def test_shortest_path_line():
    path, cost = shortest_path(line_topology(), 0, 2)
    assert (path, cost, type(cost)) == ([0, 1, 2], 4, int)  # degrees 1 + 2 + 1


def test_shortest_path_prefers_light_detour():
    # Hub 0 links 1, 2 and three leaves (degree 5); the detour 1-3-4-2 has
    # degree-2 inner nodes, so its cost 2 + 2 + 2 + 2 beats 2 + 5 + 2.
    t = graph(8, [(0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 3), (2, 4), (3, 4)])
    assert shortest_path(t, 1, 2) == ([1, 3, 4, 2], 8)


def test_shortest_path_degenerate_source_equals_destination():
    assert shortest_path(line_topology(), 1, 1) == ([1], 2)  # degree 2


def test_shortest_path_unreachable_raises():
    t = generate_erdos_renyi(4, 0.0, seed=1)
    with pytest.raises(NoRouteError):
        shortest_path(t, 0, 3)


def test_shortest_path_matches_exhaustive_oracle():
    rng = random.Random(4242)
    for trial in range(100):
        n = rng.randint(2, 8)
        t = generate_erdos_renyi(n, rng.uniform(0.3, 0.9), seed=trial)
        random_weights = {i: rng.uniform(0.1, 5.0) for i in range(n)}
        src, dst = rng.sample(range(n), 2)
        # Unit weights tie many routes, so brute force checks the tie-break.
        expected = brute_force_min_cost(t, src, dst, {i: 1 for i in range(n)})
        if expected is None:
            with pytest.raises(NoRouteError):
                shortest_path(t, src, dst)
            with pytest.raises(NoRouteError):
                sdn_path_cost(t, PathCostWeights(random_weights), src, dst)
            continue
        assert shortest_path(t, src, dst) == (list(expected[1]), expected[0])
        weighted = brute_force_min_cost(t, src, dst, random_weights)[0]
        assert sdn_path_cost(t, PathCostWeights(random_weights), src, dst) == pytest.approx(weighted, rel=1e-12)


def heap_of_paths_shortest_path(t, src, dst, node_weight):
    """Oracle: the search as first written, pushing every unsettled neighbour."""
    n = len(t.nodes)
    entry = [node_weight[i] * len(t._adjacency[i]) for i in range(n)]
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
        for v in t._adjacency[u]:
            if v not in settled:
                heapq.heappush(heap, (cost + entry[v], path + (v,)))
    raise NoRouteError(f"no route from {src} to {dst}")


def route_or_none(search, *args):
    """The route, its cost and the cost's type (int weights give int costs)."""
    try:
        path, cost = search(*args)
    except NoRouteError:
        return None
    return path, cost, type(cost)


def path_cost_or_none(t, src, dst, weights):
    """``sdn_path_cost`` and its type, or None without a route."""
    try:
        cost = sdn_path_cost(t, PathCostWeights(weights), src, dst)
    except NoRouteError:
        return None
    return cost, type(cost)


def weight_lists(size):
    return st.one_of(
        st.just("unit"),  # 1.0 everywhere: the degree sums, as floats
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=size, max_size=size),
        # a 2**53 weight rounds unequal sums to equal costs
        st.lists(st.sampled_from([0.25, 0.75, 1.0, 2.0**53]), min_size=size, max_size=size),
        st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size),
        # whole-number costs, exact in floats
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=size, max_size=size),
        # whole numbers whose entry sums cross 2**53, where float sums stop being exact
        st.lists(st.sampled_from([1.0, 2.0, 3.0, 2.0**51, 2.0**52]), min_size=size, max_size=size),
        st.lists(st.integers(1, 4), min_size=size, max_size=size),  # Python ints
    )


def assert_every_destination_matches(n, p, graph_seed, weights, src):
    """``shortest_path`` gives the oracle's route, cost and cost type under int unit
    weights; ``sdn_path_cost`` gives its cost and cost type under ``weights``."""
    t = generate_erdos_renyi(n, p, graph_seed)
    unit = {i: 1 for i in range(n)}
    w = {i: 1.0 if weights == "unit" else weights[i] for i in range(n)}
    src %= n
    for dst in range(n):  # src itself and, on sparse graphs, unreachable nodes included
        expected = route_or_none(heap_of_paths_shortest_path, t, src, dst, unit)
        assert route_or_none(shortest_path, t, src, dst) == expected
        expected = route_or_none(heap_of_paths_shortest_path, t, src, dst, w)
        assert path_cost_or_none(t, src, dst, w) == (expected and expected[1:])


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


def cost_or_error(search, *args):
    """The cost and its type, or the type and text of the error."""
    try:
        cost = search(*args)
    except (NoRouteError, IndexError) as exc:
        return type(exc), str(exc)
    return cost, type(cost)


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
    unit = PathCostWeights({i: 1 for i in range(n)})
    for dst in range(-1, n + 1):  # src itself, unreachable nodes and both out-of-range indices
        default = cost_or_error(lambda: shortest_path(t, src, dst)[1])
        assert default == cost_or_error(sdn_path_cost, t, unit, src, dst)
        if default[0] not in (NoRouteError, IndexError):
            assert default[1] is int


def test_default_unit_weights_on_an_isolated_node_and_a_line():
    line = line_topology()
    t = from_records(line.nodes + line.nodes[:1], line.edges, line.area)
    assert shortest_path(t, 3, 3) == ([3], 0)  # node 3 is isolated: entry 0
    path, cost = shortest_path(t, 0, 2)
    assert (path, cost, type(cost)) == ([0, 1, 2], 4, int)
    with pytest.raises(NoRouteError, match="no route from 0 to 3"):
        shortest_path(t, 0, 3)
    with pytest.raises(IndexError, match="node 4 not in topology of 4 nodes"):
        shortest_path(t, 0, 4)


def graph(n, edges=()):
    """A topology of ``n`` nodes at the origin, joined by ``edges``."""
    return from_records(line_topology().nodes[:1] * n, tuple(edges))


@pytest.mark.parametrize("edges, src, dst, route, pushes", [
    # Star with centre 0 (degree 8): once the backward search settles the
    # centre, its other leaves would cost 9 + 9 > mu = 10 and never settle.
    (tuple((0, leaf) for leaf in range(1, 9)), 1, 2, ([1, 0, 2], 10), [(1, 0), (9, 0)]),
    # Line 0-1-2-3: leaf 0 behind the source would cost 3, and 3 plus the
    # backward key of 3 exceeds mu = 5, so the forward search queues nothing.
    (((0, 1), (1, 2), (2, 3)), 1, 3, ([1, 2, 3], 5), [(1, 2), (3, 1)]),
], ids=["star", "line"])
def test_search_pushes_no_entry_that_cannot_pop(edges, src, dst, route, pushes):
    result, pushed = search_recording_pushes(graph(1 + max(b for _, b in edges), edges), src, dst)
    assert result == route
    assert sorted((cost, node) for _, cost, node in pushed) == pushes


def search_recording_pushes(t, src, dst):
    """``shortest_path(t, src, dst)``, or its ``NoRouteError``, with the (side, cost,
    node) of every bucket insert after the two starting entries, side "f" or "b"."""
    search = shortest_path.__code__
    source, first = inspect.getsourcelines(search)
    insert_sides = {first + i: "f" if "queue_f" in line else "b"
                    for i, line in enumerate(source) if ".setdefault(cv, []).append(v)" in line}
    assert sorted(insert_sides.values()) == ["b", "f"]  # one bucket insert per side
    pushed = []

    def record(frame, event, arg):  # a line event fires just before the line runs
        if event == "line" and frame.f_lineno in insert_sides:
            pushed.append((insert_sides[frame.f_lineno], frame.f_locals["cv"], frame.f_locals["v"]))
        return record

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: record if frame.f_code is search else None)
    try:
        result = shortest_path(t, src, dst)
    except NoRouteError as exc:
        result = exc
    finally:
        sys.settrace(previous)
    return result, pushed


def heap_bidirectional_search(adjacency, entry, src, dst):
    """Oracle: the unit-weight bidirectional search on two heaps of (cost, node)."""
    n, inf = len(entry), math.inf
    df, db = [inf] * n, [inf] * n
    df[src], db[dst] = entry[src], 0
    mu = entry[src] if src == dst else inf
    heap_f, heap_b, settled_f = [(entry[src], src)], [(0, dst)], []
    pop, push = heapq.heappop, heapq.heappush
    while heap_f and heap_b:
        top_f, top_b = heap_f[0][0], heap_b[0][0]
        if top_f + top_b > mu:
            break
        if top_f <= top_b:
            c, u = pop(heap_f)
            if c > df[u]:  # stale: u settled cheaper
                continue
            settled_f.append(u)
            for v in adjacency[u]:
                cv = c + entry[v]
                if cv < df[v]:
                    df[v] = cv
                    if cv + db[v] < mu:
                        mu = cv + db[v]
                    if cv + top_b <= mu:
                        push(heap_f, (cv, v))
        else:
            c, u = pop(heap_b)
            if c > db[u]:
                continue
            cv = c + entry[u]
            for v in adjacency[u]:
                if cv < db[v]:
                    db[v] = cv
                    if df[v] + cv < mu:
                        mu = df[v] + cv
                    if top_f + cv <= mu:
                        push(heap_b, (cv, v))
    if mu == inf:
        raise NoRouteError(f"no route from {src} to {dst}")
    for u in reversed(settled_f):  # latest first: a prefix node's successors come before it
        cost = df[u]
        for v in adjacency[u]:
            if cost + entry[v] + db[v] == mu:
                db[u] = mu - cost
                break
    path, u, cost = [src], src, entry[src]
    while u != dst:
        for v in adjacency[u]:
            if cost + entry[v] + db[v] == mu:
                break
        else:
            raise RuntimeError(f"route walk from {src} to {dst} stuck at node {u}")
        if len(path) == n:
            raise RuntimeError(f"route walk from {src} to {dst} exceeds {n} nodes")
        path.append(v)
        u, cost = v, cost + entry[v]
    return path, cost


@st.composite
def search_graphs(draw):
    """Edge lists for the unit search, each family aimed at one of its cases."""
    family = draw(st.sampled_from(["sparse", "dense", "star", "cycle"]))
    if family == "sparse":  # the sweep's band: many unreachable pairs
        n, p = draw(st.integers(2, 200)), draw(st.sampled_from([0.01, 0.02, 0.03, 0.05]))
        edges = generate_erdos_renyi(n, p, draw(st.integers(0, 2**32))).edges
    elif family == "dense":  # up to the complete graph: many equal-cost routes
        n, p = draw(st.integers(2, 40)), draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
        edges = generate_erdos_renyi(n, p, draw(st.integers(0, 2**32))).edges
    elif family == "star":  # entries 1 and >= 20 leave gaps between the bucket keys
        leaves = draw(st.integers(20, 40))
        n = leaves + 1
        chords = draw(st.lists(st.tuples(st.integers(1, leaves), st.integers(1, leaves))
                               .filter(lambda e: e[0] != e[1]), max_size=10))
        edges = {(0, leaf) for leaf in range(1, n)} | {tuple(sorted(e)) for e in chords}
    else:  # an even cycle: two equal-cost routes between opposite nodes
        n = 2 * draw(st.integers(2, 12))
        edges = [(i, (i + 1) % n) for i in range(n)]
    order = draw(st.permutations(range(n)))  # so the tie-break is not just index order
    if draw(st.booleans()):
        n += 1  # one isolated node: entry 0, unreachable from everything else
    return n, sorted(tuple(sorted((order[a], order[b]))) for a, b in edges)


def route_cost_and_type_or_error(search, *args):
    try:
        path, cost = search(*args)
    except NoRouteError as exc:
        return "NoRouteError", str(exc)
    return path, cost, type(cost)


@settings(max_examples=200, deadline=None)
@given(case=search_graphs(), src=st.integers(0, 2**16))
def test_bucket_search_matches_the_heap_search(case, src):
    n, edges = case
    t = graph(n, edges)
    adjacency = {i: t._adjacency[i] for i in range(n)}
    entry = [len(adjacency[i]) for i in range(n)]
    for s in {src % n, n - 1}:  # node n - 1 is isolated when the case added one
        for d in range(n):  # s itself, and the isolated node whenever there is one
            expected = route_cost_and_type_or_error(heap_bidirectional_search, adjacency, entry, s, d)
            assert route_cost_and_type_or_error(shortest_path, t, s, d) == expected


@settings(max_examples=200, deadline=None)
@given(case=search_graphs(), srcs=st.lists(st.integers(0, 2**16), max_size=4))
def test_route_costs_route_every_flow_as_the_search_does(case, srcs):
    # Every pair up to 41 nodes (dense, star and cycle cases, and small sparse ones);
    # above that every destination, with the drawn sources, itself and node n - 1,
    # isolated when the case added one (entry 0: a route to it from itself costs 0).
    n, edges = case
    t = graph(n, edges)
    adjacency = {i: t._adjacency[i] for i in range(n)}
    entry = [len(adjacency[i]) for i in range(n)]
    for d in range(n):
        tree = route_costs(t, d)
        assert len(tree) == n and tree[d] == 0
        for s in range(n) if n <= 41 else {d, n - 1, *(x % n for x in srcs)}:
            searched = route_cost_and_type_or_error(shortest_path, t, s, d)
            assert route_cost_and_type_or_error(shortest_path, t, s, d, tree) == searched
            expected = route_cost_and_type_or_error(heap_bidirectional_search, adjacency, entry, s, d)
            assert searched == expected
            assert tree[s] == (math.inf if expected[0] == "NoRouteError" else expected[1] - entry[s])


def test_route_costs_of_another_graph_or_destination_are_rejected():
    t = line_topology()  # 0 - 1 - 2
    assert route_costs(t, 2) == [3, 1, 0]  # node 0 pays node 1's degree 2 and node 2's 1
    assert shortest_path(t, 0, 2, route_costs(t, 2)) == ([0, 1, 2], 4)
    with pytest.raises(ValueError, match=r"not route_costs\(t, 2\) of this 3-node topology"):
        shortest_path(t, 0, 2, route_costs(graph(4, [(0, 1), (1, 2)]), 2))  # one node too many
    with pytest.raises(ValueError, match=r"not route_costs\(t, 2\) of this 3-node topology"):
        shortest_path(t, 0, 2, route_costs(t, 1))  # the tree to node 1


@settings(max_examples=200, deadline=None)
@given(case=search_graphs(), src=st.integers(0, 2**16), dsts=st.lists(st.integers(0, 2**16), max_size=6))
def test_the_forward_search_queues_each_node_at_most_once(case, src, dsts):
    # Forward keys rise and every entered node adds its degree, at least 1, so
    # df[v] is set once: no forward entry can go stale.
    n, edges = case
    t, s = graph(n, edges), src % n
    for d in {s, n - 1, *(x % n for x in dsts)}:
        forward = [node for side, _, node in search_recording_pushes(t, s, d)[1] if side == "f"]
        assert len(forward) == len(set(forward)) and s not in forward
