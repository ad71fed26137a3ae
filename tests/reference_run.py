"""A slow, plain reference for one scenario run: one oracle per stage, wired as ``run_scenario``.

Each stage oracle is the obvious implementation of its stage: the graph from
an explicit list of node pairs, the waypoint step one node record at a time,
routes from a heap of whole paths, the packet count one edge at a time, and
the controller queue holding every arrival in a list. ``reference_run``
draws the same derived seeds in the same order as ``run_scenario`` and
writes each model formula out in its operation order, so the two agree bit
for bit, except the queue backlog when a request is still in service at the
horizon: there the fast queue draws the remaining arrivals as one Poisson count.
"""

import heapq
import itertools
import math
import random

from sdnmanet.controller import QueueOutcome
from sdnmanet.resources import RESOURCE_KINDS
from sdnmanet.rng import derive_seed
from sdnmanet.simulator import RESOURCE_COLUMNS, MetricsReport
from sdnmanet.topology import Topology


def from_records(records, edges=(), area=(10.0, 10.0)):
    """A topology whose columns are read off ``(position, velocity, waypoint)`` records."""
    return Topology(*zip(*records), edges=tuple(edges), area=area)


def _uniform(rng, low, high):
    return low + (high - low) * rng.random()


def _index(rng, n):
    return min(int(rng.random() * n), n - 1)


def reference_graph(n, p, seed, area=(1000.0, 1000.0)):
    """Oracle: G(n, p) at rest, positions drawn first, then geometric gaps over the list of all pairs."""
    rng = random.Random(seed)
    positions = [(_uniform(rng, 0.0, area[0]), _uniform(rng, 0.0, area[1])) for _ in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    edges = pairs if p == 1.0 else []
    if 0.0 < p < 1.0:
        k = -1  # the index of the last pair taken
        while k + 1 + (gap := math.log(1.0 - rng.random()) / math.log1p(-p)) < len(pairs):
            k += 1 + math.floor(gap)
            edges.append(pairs[k])
    return from_records([(pos, (0.0, 0.0), pos) for pos in positions], edges, area)


def dataclass_step_mobility(t, dt, speed_range, seed):
    """Oracle: one random-waypoint step as first written, one node record at a time."""
    lo, hi = speed_range
    rng = random.Random(seed)
    width, height = t.area
    moved = []
    for pos, vel, wp in zip(t.positions, t.velocities, t.waypoints):
        if math.hypot(*vel) * dt >= math.hypot(pos[0] - wp[0], pos[1] - wp[1]):
            pos = wp
            wp = (_uniform(rng, 0.0, width), _uniform(rng, 0.0, height))
            speed = _uniform(rng, lo, hi) if hi > lo else lo
            leg = math.hypot(pos[0] - wp[0], pos[1] - wp[1])
            if speed > 0.0 and leg > 0.0:
                vel = ((wp[0] - pos[0]) / leg * speed, (wp[1] - pos[1]) / leg * speed)
            else:
                vel = (0.0, 0.0)
        else:
            pos = (pos[0] + vel[0] * dt, pos[1] + vel[1] * dt)
        pos = (min(max(pos[0], 0.0), width), min(max(pos[1], 0.0), height))
        moved.append((pos, vel, wp))
    return from_records(moved, t.edges, t.area)


def heap_of_paths_routes(t, src, node_weight):
    """Oracle: ``{dst: (route, cost)}`` for every node ``src`` reaches, where a node costs
    its weight times its degree, endpoints included, and ties go to the lexicographically
    smallest route. A heap of whole ``(cost, route)`` paths pops each node's best first."""
    entry = [node_weight[i] * degree for i, degree in enumerate(t._degree)]
    heap, routes = [(entry[src], (src,))], {}
    while heap:
        cost, path = heapq.heappop(heap)
        if path[-1] in routes:
            continue
        routes[path[-1]] = (list(path), cost)
        for v in t._adjacency[path[-1]]:
            if v not in routes:
                heapq.heappush(heap, (cost + entry[v], path + (v,)))
    return routes


def reference_hops(t, flows, seed):
    """Oracle: the hop count of each routable flow of ``flows`` (src, dst) draws, in flow order."""
    rng, n, routes, hops = random.Random(seed), len(t.positions), {}, []
    for _ in range(flows):
        src, dst = _index(rng, n), _index(rng, n - 1)
        dst += dst >= src
        if src not in routes:
            routes[src] = heap_of_paths_routes(t, src, [1] * n)
        if dst in routes[src]:
            hops.append(len(routes[src][dst][0]) - 1)
    return hops


def per_edge_packet_count(t, mean_speed, params, window_s):
    """Oracle: the control packets along the links, one edge at a time."""
    total = 0
    for a, b in t.edges:
        (ax, ay), (bx, by) = t.positions[a], t.positions[b]
        total += round(params.pair_coefficient * math.hypot(ax - bx, ay - by) * mean_speed * window_s)
    return total


def list_based_simulate_queue(n, cfg, seed):
    """Oracle: the exact M/D/1 queue, drawing and holding every arrival up to the horizon in a list."""
    rng = random.Random(seed)
    horizon = cfg.sim_duration_s
    rate = n * cfg.event_rate_lambda
    arrivals = []
    if rate > 0:
        t = -math.log(1.0 - rng.random()) / rate
        while t <= horizon:
            arrivals.append(t)
            t += -math.log(1.0 - rng.random()) / rate
    service = 1.0 / cfg.capacity_mu
    latencies = []
    prev_done = 0.0
    for a in arrivals:
        done = (a if a > prev_done else prev_done) + service
        prev_done = done
        if done <= horizon:
            latencies.append((done - a) * 1000.0)
    return QueueOutcome(served_latencies_ms=tuple(latencies), final_backlog=len(arrivals) - len(latencies))


def reference_run(cfg, n, mode, seed):
    """Oracle: ``run_scenario(cfg, n, mode, seed)`` for a valid config, stage by stage."""
    space, rp = cfg.topology, cfg.routing
    t = reference_graph(n, space.link_probability, derive_seed(seed, 1), (space.area_width_m, space.area_height_m))
    for k in range(int(round(cfg.sim_duration_s / space.mobility_step_s))):
        t = dataclass_step_mobility(t, space.mobility_step_s, (space.speed_min_mps, space.speed_max_mps),
                                    derive_seed(seed, 2, k))
    flows = cfg.flow_samples if n > 1 else 0  # one node has no pair to route
    hops = reference_hops(t, flows, derive_seed(seed, 3))
    routable = len(hops) / flows if flows else 1.0
    mean_speed = 0.5 * (space.speed_min_mps + space.speed_max_mps)
    break_rate = cfg.rediscovery_base_rate * (mean_speed / cfg.reference_speed_mps) * (1.0 + n / 100.0)
    if mode == "sdn":
        per_flow = [rp.controller_compute_ms + rp.controller_rtt_ms + h * rp.per_hop_delay_ms for h in hops or [1]]
        ctl = cfg.controller
        latency_max = ctl.latency_threshold_ms * n / (n + ctl.half_saturation_nodes)
        repair_ms = rp.controller_compute_ms + rp.controller_rtt_ms + rp.reconfig_base_ms
        backlog = float(list_based_simulate_queue(n, ctl, derive_seed(seed, 4)).final_backlog)
        curves = cfg.resources
        usage = [min(100.0, 100.0 * (n / getattr(curves, f"{kind}_saturation_n")) ** getattr(curves, f"{kind}_alpha"))
                 for kind in RESOURCE_KINDS]
        overhead_bits = rp.sdn_update_rate_per_node_s * n * cfg.sim_duration_s * rp.control_msg_bits
    else:
        update_ms = rp.discovery_base_ms + rp.propagation_base_ms + rp.reconfig_base_ms
        discovery_ms = break_rate * cfg.latency_window_s * update_ms
        per_flow = [discovery_ms + h * rp.per_hop_delay_ms for h in hops or [1]]
        latency_max, repair_ms, backlog, usage = max(per_flow), update_ms, 0.0, [0.0] * len(RESOURCE_KINDS)
        overhead_bits = (break_rate * cfg.sim_duration_s * rp.discovery_flood_factor * len(t.edges)
                         * rp.control_msg_bits)
    pdr = min(1.0, max(0.0, 1.0 - break_rate * repair_ms / 1000.0)) * routable
    packets = per_edge_packet_count(t, mean_speed, cfg.overhead, cfg.sim_duration_s)
    rate = packets * cfg.overhead.packet_size_bits / cfg.sim_duration_s
    if mode == "sdn":
        controller, overhead = cfg.controller_capacity_bps, rate
    else:
        controller, overhead = 0.0, cfg.overhead.flood_multiplier * rate
    raw = n * space.node_capacity_bps + controller - overhead
    effective = max(0.0, raw)
    throughput = min(n * cfg.per_node_demand_bps, effective) * pdr
    if mode == "sdn":
        throughput = min(throughput * cfg.eta_optimization, effective)
    return MetricsReport(n=n, mode=mode, latency_avg_ms=sum(per_flow) / len(per_flow), latency_max_ms=latency_max,
                         throughput_bps=throughput, pdr=pdr, control_overhead_bits=overhead_bits,
                         queue_backlog=backlog, effective_capacity_bps=effective,
                         **dict(zip(RESOURCE_COLUMNS, usage)), saturated=raw < 0.0)
