"""Network graph model: generation, mobility, distances, paths, clustering.

Nodes live in a rectangular area and are linked by an Erdos-Renyi random
graph; every node carries a position, a velocity, a data-rate capacity, and
a random-waypoint target. All operations are pure (they return fresh
values) and deterministic given their seed, so concurrent sweep workers can
share nothing and still agree bit for bit.
"""

from __future__ import annotations

import copy
import heapq
import math
import operator
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .rng import rand_index, uniform_in

# Floor on edge weights, so coincident nodes never give a zero-weight link.
_MIN_EDGE_WEIGHT = 1e-9


class NoRouteError(Exception):
    """Destination not reachable from the source in the current graph."""


class NodeState(NamedTuple):
    """One node: where it is, how it moves, and how much it can carry."""

    position: tuple[float, float]  # meters
    velocity: tuple[float, float]  # meters/second, points at the waypoint
    capacity_bps: float            # bits/second
    waypoint: tuple[float, float]  # meters


@dataclass(frozen=True)
class Topology:
    """Undirected graph over mobile nodes.

    Edges are unordered pairs ``(a, b)`` with ``a < b``, checked and indexed
    once at construction; mobility moves the nodes and keeps the edges. The
    fields are frozen and ``nodes`` is stored as a tuple (a list passed in is
    copied), so the index can never describe another graph.
    """

    nodes: tuple[NodeState, ...]
    edges: tuple[tuple[int, int], ...]
    area: tuple[float, float] = (1000.0, 1000.0)
    _adjacency: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _degree: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(self.nodes)
        neighbors: dict[int, list[int]] = {i: [] for i in range(n)}
        seen: set[tuple[int, int]] = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < b < n):
                raise ValueError(f"edge ({a}, {b}) has invalid endpoints for n={n}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            neighbors[a].append(b)
            neighbors[b].append(a)
        object.__setattr__(self, "_adjacency", {i: tuple(sorted(neighbors[i])) for i in range(n)})
        object.__setattr__(self, "_degree", tuple(map(len, neighbors.values())))

    @property
    def edge_weight(self) -> dict[tuple[int, int], float]:
        """Edge lengths in meters at the current positions, floored."""
        pos = [node.position for node in self.nodes]
        return {(a, b): max(_euclid(pos[a], pos[b]), _MIN_EDGE_WEIGHT) for a, b in self.edges}

    def neighbors(self, i: int) -> tuple[int, ...]:
        _check_node(self, i)
        return self._adjacency[i]


@dataclass(frozen=True)
class Clustering:
    """Geographic partition of nodes with one head per cluster."""

    assignments: dict[int, int]  # node -> cluster index
    heads: tuple[int, ...]       # heads[c] is the head node of cluster c


def _check_node(t: Topology, i: int) -> None:
    if not isinstance(i, int) or not 0 <= i < len(t.nodes):
        raise IndexError(f"node {i} not in topology of {len(t.nodes)} nodes")


def _euclid(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def generate_erdos_renyi(
    n: int,
    p: float,
    seed: int,
    area: tuple[float, float] = (1000.0, 1000.0),
    node_capacity_bps: float = 15_000.0,
) -> Topology:
    """Build a G(n, p) graph with uniformly placed nodes.

    Each of the n(n-1)/2 unordered pairs becomes an edge independently with
    probability ``p``. Positions are uniform over ``area``; nodes start at
    rest with their waypoint on their own position, so the first mobility
    step draws fresh targets. Identical arguments give identical output.
    """
    if n < 1:
        raise ValueError("network must contain at least one node")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"link probability must be within [0, 1], got {p}")
    if node_capacity_bps <= 0.0:
        raise ValueError("node capacity must be positive")
    for name, side in zip(("width", "height"), area):
        if not 0.0 < side < math.inf:
            raise ValueError(f"area {name} must be positive and finite, got {side}")
    rng = random.Random(seed)
    nodes = []
    for _ in range(n):
        pos = (uniform_in(rng, 0.0, area[0]), uniform_in(rng, 0.0, area[1]))
        nodes.append(
            NodeState(position=pos, velocity=(0.0, 0.0),
                      capacity_bps=node_capacity_bps, waypoint=pos)
        )
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b))
    return Topology(nodes=tuple(nodes), edges=tuple(edges), area=area)


def step_mobility(
    t: Topology,
    dt: float,
    speed_range: tuple[float, float],
    seed: int,
) -> Topology:
    """Advance every node by one random-waypoint step of ``dt`` seconds.

    A node moves toward its waypoint at its current speed; on arrival it
    draws a new waypoint uniformly in the area and a new speed uniformly in
    ``speed_range`` (the arrival consumes the remainder of the step). The
    result shares ``t``'s edges and adjacency, which mobility never changes,
    so they are not checked again.
    """
    lo, hi = speed_range
    for name, value in (("dt", dt), ("min speed", lo), ("max speed", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not 0.0 <= lo <= hi:
        raise ValueError(f"speed range must satisfy 0 <= min <= max, got {speed_range}")
    rng = random.Random(seed)
    width, height = t.area
    hypot = math.hypot
    moved: list[NodeState] = []
    for pos, vel, capacity_bps, wp in t.nodes:
        if hypot(vel[0], vel[1]) * dt >= hypot(pos[0] - wp[0], pos[1] - wp[1]):
            # Arrived: land on the waypoint and pick the next leg.
            x, y = wp
            wp = (uniform_in(rng, 0.0, width), uniform_in(rng, 0.0, height))
            speed = uniform_in(rng, lo, hi) if hi > lo else lo
            leg = hypot(x - wp[0], y - wp[1])
            if speed > 0.0 and leg > 0.0:
                vel = ((wp[0] - x) / leg * speed, (wp[1] - y) / leg * speed)
            else:
                vel = (0.0, 0.0)
        else:
            x, y = pos[0] + vel[0] * dt, pos[1] + vel[1] * dt
        # Clamp into the area; the same result as min(max(v, 0.0), bound), -0.0 and NaN included.
        x = 0.0 if x < 0.0 else x
        x = width if x > width else x
        y = 0.0 if y < 0.0 else y
        y = height if y > height else y
        moved.append(NodeState((x, y), vel, capacity_bps, wp))
    stepped = copy.copy(t)
    object.__setattr__(stepped, "nodes", tuple(moved))
    return stepped


def distance(t: Topology, a: int, b: int) -> float:
    """Euclidean distance in meters between nodes ``a`` and ``b``."""
    _check_node(t, a)
    _check_node(t, b)
    return _euclid(t.nodes[a].position, t.nodes[b].position)


def degree(t: Topology, i: int) -> int:
    """Number of links incident to node ``i``."""
    _check_node(t, i)
    return t._degree[i]


def shortest_path(
    t: Topology,
    src: int,
    dst: int,
    node_weight: dict[int, float] | None = None,
) -> tuple[list[int], float]:
    """Minimum-cost path where cost is the sum of weight*degree over path nodes.

    The cost of a path is ``sum(node_weight[i] * degree(i))`` over every node
    on it, endpoints included; without ``node_weight`` every node weighs 1 and
    the cost is an ``int``. Ties break toward the lexicographically smallest
    node sequence. Raises ``NoRouteError`` when ``dst`` cannot be reached, and
    ``ValueError`` when a node's weight is missing, not positive or not finite.

    When every ``weight * degree`` is a whole number and they sum below
    2**53 (unit weights always do), every path cost is exact, and a
    bidirectional search returns the same route and cost as the general
    one. Otherwise a heap of paths keeps float rounding's tie-breaks: a path
    is pushed only if its cost is no worse than the best pushed to its last
    node, since a strictly dearer one would pop after that node settled.
    """
    _check_node(t, src)
    _check_node(t, dst)
    n = len(t.nodes)
    adjacency = t._adjacency
    if node_weight is None:  # unit weights: the entries are the degrees, all exact
        return _bidirectional_search(adjacency, t._degree, src, dst)
    try:
        weight = list(map(node_weight.__getitem__, range(n)))
        valid = min(weight) > 0.0 and sum(weight) < math.inf  # a NaN or inf weight fails the sum
    except KeyError:
        valid = False
    if not valid:  # find the first bad node, in index order
        for i in range(n):
            if i not in node_weight:
                raise ValueError(f"node_weight missing node {i}")
            if node_weight[i] <= 0.0:
                raise ValueError(f"node_weight[{i}] must be positive")
            if not math.isfinite(node_weight[i]):
                raise ValueError(f"node_weight[{i}] must be finite")
    entry = list(map(operator.mul, weight, t._degree))
    if sum(entry) < 2**53:
        try:
            exact = all(map(float.is_integer, entry))
        except TypeError:  # int entries; float.is_integer takes floats only
            exact = all(map(float.is_integer, map(float, entry)))
        if exact:
            return _bidirectional_search(adjacency, entry, src, dst)
    best: list[float | None] = [math.inf] * n  # None once settled
    heap: list[tuple[float, tuple[int, ...]]] = [(entry[src], (src,))]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        cost, path = pop(heap)
        u = path[-1]
        if best[u] is None:
            continue
        best[u] = None
        if u == dst:
            return list(path), cost
        for v in adjacency[u]:
            c = cost + entry[v]
            b = best[v]
            if b is not None and c <= b:
                best[v] = c
                push(heap, (c, path + (v,)))
    raise NoRouteError(f"no route from {src} to {dst}")


def _bidirectional_search(
    adjacency: dict[int, tuple[int, ...]], entry: Sequence[float], src: int, dst: int
) -> tuple[list[int], float]:
    """``shortest_path`` for exact costs, searched from both ends at once.

    ``df[v]`` is the cheapest cost found from ``src`` to ``v``, ``v``'s entry
    included, and ``db[v]`` from ``v`` to ``dst`` without it. The search stops
    only once the heap tops sum to more than ``mu``, the cheapest route seen
    (Goldberg & Harrelson, SODA 2005), so every min-cost route is a forward-
    settled prefix and a backward-settled suffix. ``db`` is extended over
    those prefixes, and a walk from ``src`` takes the smallest tight neighbour.
    Tops never fall and ``mu`` never rises, so an entry is pushed only if it
    plus the other top is within ``mu``: any other could never pop.
    """
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


def cluster(t: Topology, k: int, seed: int) -> Clustering:
    """Partition node positions into ``k`` geographic clusters.

    Lloyd-style k-means seeded with ``k`` distinct node positions; each
    cluster's head is its member nearest the final centroid. Deterministic
    given the seed.
    """
    n = len(t.nodes)
    if not 1 <= k <= n:
        raise ValueError(f"cluster count must be within [1, {n}], got {k}")
    rng = random.Random(seed)
    order = list(range(n))
    for j in range(k):  # partial Fisher-Yates for k distinct seeds
        swap = j + rand_index(rng, n - j)
        order[j], order[swap] = order[swap], order[j]
    positions = [node.position for node in t.nodes]
    centroids = [positions[order[j]] for j in range(k)]

    def nearest(pos: tuple[float, float]) -> int:
        best_c, best_d = 0, float("inf")
        for c, ctr in enumerate(centroids):
            d = (pos[0] - ctr[0]) ** 2 + (pos[1] - ctr[1]) ** 2
            if d < best_d:
                best_c, best_d = c, d
        return best_c

    assign = [nearest(pos) for pos in positions]
    for _ in range(100):
        for c in range(k):
            members = [i for i in range(n) if assign[i] == c]
            if members:
                centroids[c] = (
                    sum(positions[i][0] for i in members) / len(members),
                    sum(positions[i][1] for i in members) / len(members),
                )
        new_assign = [nearest(pos) for pos in positions]
        if new_assign == assign:
            break
        assign = new_assign

    # Repair any empty cluster by donating the farthest member of the
    # largest cluster, so every head exists inside its own cluster.
    for c in range(k):
        if not any(a == c for a in assign):
            sizes = [sum(1 for a in assign if a == d) for d in range(k)]
            donor = sizes.index(max(sizes))
            members = [i for i in range(n) if assign[i] == donor]
            far = max(
                members,
                key=lambda i: (_euclid(positions[i], centroids[donor]), -i),
            )
            assign[far] = c
            centroids[c] = positions[far]

    heads = []
    for c in range(k):
        members = [i for i in range(n) if assign[i] == c]
        heads.append(min(members, key=lambda i: (_euclid(positions[i], centroids[c]), i)))
    return Clustering(assignments={i: assign[i] for i in range(n)}, heads=tuple(heads))
