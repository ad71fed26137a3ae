"""Network graph model: generation, mobility, distances, and paths.

Nodes live in a rectangular area and are linked by an Erdos-Renyi random
graph; every node carries a position, a velocity and a random-waypoint
target. All operations are pure (they return fresh values) and
deterministic given their seed.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field

from .rng import uniform_in

# Floor on edge weights, so coincident nodes never give a zero-weight link.
_MIN_EDGE_WEIGHT = 1e-9
_MOVING = ("positions", "velocities", "waypoints")


class NoRouteError(Exception):
    """Destination not reachable from the source in the current graph."""


@dataclass(frozen=True)
class Topology:
    """Undirected graph over mobile nodes.

    Node state is kept as three columns, the ones mobility moves. Edges are
    unordered pairs ``(a, b)`` with ``a < b``, checked and indexed once at
    construction; mobility moves the nodes and keeps the edges. The fields are
    frozen and every column is a tuple (a list passed in is copied), so the
    index can never describe another graph. A stepped topology computes its
    moving columns on first read (``__getattr__``).
    """

    positions: tuple[tuple[float, float], ...]    # meters
    velocities: tuple[tuple[float, float], ...]   # m/s, each points at its waypoint
    waypoints: tuple[tuple[float, float], ...]    # meters
    edges: tuple[tuple[int, int], ...]
    area: tuple[float, float] = (1000.0, 1000.0)
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())
    _degree: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        n, edges = len(self.positions), self.edges
        for name in _MOVING:
            column = tuple(getattr(self, name))
            if len(column) != n:
                raise ValueError(f"{name} has {len(column)} entries, positions has {n}")
            object.__setattr__(self, name, column)
        a_ends, b_ends = zip(*edges) if edges else ((), ())  # whole-list checks, in C
        if not (all(map(operator.lt, a_ends, b_ends)) and min(a_ends, default=0) >= 0
                and max(b_ends, default=0) < n and len(set(edges)) == len(edges)):
            seen: set[tuple[int, int]] = set()  # name the first bad edge, one at a time
            for a, b in edges:
                if a == b:
                    raise ValueError(f"self-loop on node {a}")
                if not (0 <= a < b < n):
                    raise ValueError(f"edge ({a}, {b}) has invalid endpoints for n={n}")
                if (a, b) in seen:
                    raise ValueError(f"duplicate edge ({a}, {b})")
                seen.add((a, b))
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for a, b in edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        object.__setattr__(self, "_adjacency", tuple(map(tuple, map(sorted, neighbors))))
        object.__setattr__(self, "_degree", tuple(map(len, neighbors)))

    def __getattr__(self, name: str) -> object:
        """A stepped topology's moving column. The first read follows the ``_pending``
        links, each a (parent, step) pair, back to the nearest walked topology, takes
        each node, in index order, through every step since with one step's float
        operations, clamps and draws, and stores all three columns. Step k's
        generator starts at its first arrival and serves its arrivals in node order."""
        if name not in _MOVING or not vars(self).get("_pending"):
            raise AttributeError(name)
        base, steps = self, []
        while pending := vars(base).get("_pending"):
            base, step = pending
            steps.append(step)
        (width, height), hypot, walked = self.area, math.hypot, []
        steps, draws = steps[::-1], [None] * len(steps)  # oldest step first
        for (px, py), (vx, vy), (wx, wy) in zip(base.positions, base.velocities, base.waypoints):
            leg_dt = 0.0  # no step has dt == 0.0, so the first step sets the leg's constants
            for k, (dt, lo, hi, seed) in enumerate(steps):
                if dt != leg_dt:  # a new leg or a new dt: a leg's reach and moves per step
                    leg_dt, reach, dx, dy = dt, hypot(vx, vy) * dt, vx * dt, vy * dt
                if reach >= hypot(px - wx, py - wy):  # arrived: land on the waypoint, pick the next leg
                    px, py, leg_dt = wx, wy, 0.0
                    draw = draws[k] = draws[k] or random.Random(seed).random
                    wx, wy = 0.0 + width * draw(), 0.0 + height * draw()  # uniform_in(rng, 0.0, side)
                    speed = lo + (hi - lo) * draw() if hi > lo else lo
                    leg = hypot(px - wx, py - wy)
                    vx, vy = (((wx - px) / leg * speed, (wy - py) / leg * speed)
                              if speed > 0.0 and leg > 0.0 else (0.0, 0.0))
                else:
                    px, py = px + dx, py + dy
                # Clamp into the area; the same result as min(max(v, 0.0), bound), -0.0 and NaN included.
                px = 0.0 if px < 0.0 else px
                px = width if px > width else px
                py = 0.0 if py < 0.0 else py
                py = height if py > height else py
            walked.append(((px, py), (vx, vy), (wx, wy)))
        vars(self).update(zip(_MOVING, tuple(zip(*walked)) or ((), (), ())), _pending=None)
        return vars(self)[name]

    @property
    def nodes(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """``(position, velocity, waypoint)`` per node. Kept only because ``bench/sweep_trace.py``
        counts ``len(t.nodes)``; ROADMAP item 4 deletes it once that tracer reads a column."""
        return tuple(zip(self.positions, self.velocities, self.waypoints))

    @property
    def edge_weight(self) -> dict[tuple[int, int], float]:
        """Edge lengths in meters at the current positions, floored."""
        pos, dist = self.positions, math.dist
        return {(a, b): max(dist(pos[a], pos[b]), _MIN_EDGE_WEIGHT) for a, b in self.edges}


def _check_node(t: Topology, i: int) -> None:
    if not isinstance(i, int) or not 0 <= i < len(t._degree):
        raise IndexError(f"node {i} not in topology of {len(t._degree)} nodes")


def generate_erdos_renyi(
    n: int,
    p: float,
    seed: int,
    area: tuple[float, float] = (1000.0, 1000.0),
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
    for name, side in zip(("width", "height"), area):
        if not 0.0 < side < math.inf:
            raise ValueError(f"area {name} must be positive and finite, got {side}")
    rng = random.Random(seed)
    positions = tuple([(uniform_in(rng, 0.0, area[0]), uniform_in(rng, 0.0, area[1])) for _ in range(n)])
    edges: list[tuple[int, int]] = []
    if p > 0.0:  # skip sampling (Batagelj & Brandes 2005): one geometric gap draw per edge
        pairs, a, b, last = n * (n - 1) // 2, 0, 0, n - 1  # (a, b) walks the pairs in lexicographic order
        log_q, log, draw = (math.log1p(-p) if p < 1.0 else -math.inf), math.log, rng.random
        while (gap := log(1.0 - draw()) / log_q) < pairs:  # an infinite gap never reaches int()
            b += 1 + int(gap)
            while b > last and a < last:  # carry into row a + 1, whose first pair is (a + 1, a + 2)
                a += 1
                b += a - last
            if a == last:  # the carry passed the last row
                break
            edges.append((a, b))
    return Topology(positions, ((0.0, 0.0),) * n, positions, tuple(edges), area)


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
    result shares ``t``'s edges and adjacency, which mobility never
    changes, so they are not checked again. Its moving columns are
    computed on first read, so a seed ``random.Random`` rejects raises
    ``TypeError`` at the first read that reaches an arrival in this step.
    """
    lo, hi = speed_range
    for name, value in (("dt", dt), ("min speed", lo), ("max speed", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not 0.0 <= lo <= hi:
        raise ValueError(f"speed range must satisfy 0 <= min <= max, got {speed_range}")
    stepped = object.__new__(Topology)  # t's edges and index, unchecked: mobility keeps them
    vars(stepped).update({k: v for k, v in vars(t).items() if k not in _MOVING},
                         _pending=(t, (dt, lo, hi, seed)))
    return stepped


def distance(t: Topology, a: int, b: int) -> float:
    """Euclidean distance in meters between nodes ``a`` and ``b``."""
    _check_node(t, a)
    _check_node(t, b)
    return math.dist(t.positions[a], t.positions[b])


def route_costs(t: Topology, dst: int) -> list:
    """``shortest_path``'s ``db`` on every node (``inf`` off ``dst``'s component): a whole backward search."""
    _check_node(t, dst)
    adjacency, entry = t._adjacency, t._degree
    db, cb, queue_b = [math.inf] * len(entry), 0, {0: [dst]}
    db[dst] = 0
    while queue_b:
        for u in queue_b.pop(cb):
            if db[u] != cb:  # stale: u settled cheaper
                continue
            cv = cb + entry[u]
            for v in adjacency[u]:
                if cv < db[v]:
                    db[v] = cv
                    queue_b.setdefault(cv, []).append(v)
        while queue_b and (cb := cb + 1) not in queue_b:
            pass
    return db


def shortest_path(t: Topology, src: int, dst: int, costs_to_dst: list | None = None) -> tuple[list[int], int]:
    """Minimum-cost route where every node on it costs its degree, endpoints included.

    The cost is the ``int`` sum of the degrees along the route; ties break
    toward the lexicographically smallest node sequence. Raises ``IndexError``
    for a node outside ``t`` and ``NoRouteError`` when ``dst`` cannot be reached.

    The route is searched from both ends at once over the degree table, each
    side a bucket queue (Dial, CACM 1969) from a cost to its nodes. A side
    settles its whole bucket, ``cf`` or ``cb``, then moves to its next key.
    ``df[v]`` is the cheapest cost found from ``src`` to ``v``, ``v``'s entry
    (its degree) included, and ``db[v]`` from ``v`` to ``dst`` without it. The search stops
    once the keys sum to more than ``mu``, the cheapest route seen (Goldberg &
    Harrelson, SODA 2005), so every min-cost route is a forward-settled prefix
    and a backward-settled suffix. ``db`` is extended over those prefixes, and
    a walk from ``src`` takes the smallest tight neighbour. Keys never fall and
    ``mu`` never rises, so a node is queued only if its cost plus the other
    side's key is within ``mu``: any other never settles. A forward entry adds the
    degree, at least 1, of the node it enters, so ``df[v]`` is set once and never stale.
    ``costs_to_dst = route_costs(t, dst)`` replaces the search (``ValueError`` if not n long or 0 at ``dst``).
    """
    _check_node(t, src)
    _check_node(t, dst)
    adjacency, entry = t._adjacency, t._degree
    n, inf = len(entry), math.inf
    if costs_to_dst is not None:
        if len(costs_to_dst) != n or costs_to_dst[dst] != 0:
            raise ValueError(f"costs_to_dst is not route_costs(t, {dst}) of this {n}-node topology")
        db, mu, settled_f = costs_to_dst, entry[src] + costs_to_dst[src], ()
    else:
        df, db = [inf] * n, [inf] * n
        cf, cb = df[src], db[dst] = entry[src], 0
        mu = cf if src == dst else inf
        queue_f, queue_b, settled_f = {cf: [src]}, {cb: [dst]}, []
        while queue_f and queue_b and cf + cb <= mu:
            if cf <= cb:
                for u in queue_f.pop(cf):
                    settled_f.append(u)
                    for v in adjacency[u]:
                        cv = cf + entry[v]
                        if cv < df[v]:
                            df[v] = cv
                            if cv + db[v] < mu:
                                mu = cv + db[v]
                            if cv + cb <= mu:
                                queue_f.setdefault(cv, []).append(v)
                while queue_f and (cf := cf + 1) not in queue_f:  # on to the next key
                    pass
            else:
                for u in queue_b.pop(cb):
                    if db[u] != cb:  # stale: u settled cheaper
                        continue
                    cv = cb + entry[u]
                    for v in adjacency[u]:
                        if cv < db[v]:
                            db[v] = cv
                            if df[v] + cv < mu:
                                mu = df[v] + cv
                            if cf + cv <= mu:
                                queue_b.setdefault(cv, []).append(v)
                while queue_b and (cb := cb + 1) not in queue_b:
                    pass
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
