"""Closed-form routing models for traditional and SDN-controlled networks.

Covers the centrally optimized path cost, routing-table update times,
per-flow latency for both control architectures, and the bandwidth consumed
by control messaging (reactive flooding vs. controller unicast).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ._checks import _check_fields, _check_mode
from .topology import NoRouteError, Topology, _check_node


@dataclass(frozen=True)
class RoutingParams:
    """Timing and control-message parameters shared by the latency models."""

    per_hop_delay_ms: float = 5.0        # forwarding delay per hop
    discovery_base_ms: float = 40.0      # reactive route discovery
    propagation_base_ms: float = 15.0    # update propagation
    reconfig_base_ms: float = 5.0        # node reconfiguration
    controller_compute_ms: float = 5.0   # central route computation
    controller_rtt_ms: float = 5.0       # node <-> controller round trip
    discovery_flood_factor: float = 2.0  # messages per edge per discovery
    sdn_update_rate_per_node_s: float = 0.1  # controller messages per node
    control_msg_bits: int = 512

    def __post_init__(self) -> None:
        _check_fields(self, non_negative=self.__dataclass_fields__)


@dataclass(frozen=True)
class PathCostWeights:
    """Per-node traffic-load/priority weights used by path costs."""

    w: dict[int, float]

    def __post_init__(self) -> None:
        for node, weight in self.w.items():
            if weight <= 0.0:
                raise ValueError(f"weight for node {node} must be positive")
            if not math.isfinite(weight):
                raise ValueError(f"weight for node {node} must be finite")


def sdn_path_cost(t: Topology, weights: PathCostWeights, src: int, dst: int) -> float:
    """Minimum over all src->dst paths of sum(weight_i * degree_i).

    Every node on a path counts, endpoints included, and a path's cost is
    summed from ``src`` along it, so ``int`` weights give an ``int`` cost.
    A label-setting search (Dijkstra, 1959) settles nodes in cost order; the
    entries are non-negative and float addition is monotone, so the cost
    with which ``dst`` first pops is the least rounded sum over all paths.
    Raises ``IndexError`` for a node outside ``t``, ``NoRouteError`` when
    ``dst`` cannot be reached, and ``ValueError`` when ``weights.w`` misses a node.
    """
    _check_node(t, src)
    _check_node(t, dst)
    w, adjacency = weights.w, t._adjacency
    for i in range(len(t._degree)):
        if i not in w:
            raise ValueError(f"weights.w missing node {i}")
    entry = [w[i] * degree for i, degree in enumerate(t._degree)]
    best = [math.inf] * len(entry)  # cheapest cost found from src, entries included
    best[src] = entry[src]
    heap = [(entry[src], src)]
    while heap:
        cost, u = heapq.heappop(heap)
        if u == dst:
            return cost
        if cost > best[u]:  # stale: u was reached cheaper since
            continue
        for v in adjacency[u]:
            c = cost + entry[v]
            if c < best[v]:
                best[v] = c
                heapq.heappush(heap, (c, v))
    raise NoRouteError(f"no route from {src} to {dst}")


def update_time(p: RoutingParams) -> float:
    """Time in ms a distributed network needs to refresh its routing tables:
    discovery + propagation + reconfiguration."""
    return p.discovery_base_ms + p.propagation_base_ms + p.reconfig_base_ms


def sdn_update_time(p: RoutingParams) -> float:
    """Controller-driven variant of `update_time`: central computation and a
    controller round trip replace discovery and propagation."""
    return p.controller_compute_ms + p.controller_rtt_ms + p.reconfig_base_ms


def latency_manet(p: RoutingParams, hops: int, window_s: float, break_rate_per_s: float) -> float:
    """Per-packet latency in ms over a distributed network.

    Route breaks within the observation window are amortized into the packet
    latency: expected breaks (break rate * window) times the full
    table-update time, plus the per-hop transmission delay.
    """
    if hops < 1:
        raise ValueError("hops must be at least 1")
    if window_s <= 0.0:
        raise ValueError("window must be positive")
    if break_rate_per_s < 0:
        raise ValueError("break rate must be non-negative")
    discovery = break_rate_per_s * window_s * update_time(p)
    return discovery + hops * p.per_hop_delay_ms


def latency_sdn(p: RoutingParams, hops: int) -> float:
    """Per-packet latency in ms when a controller pre-computes routes."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    return p.controller_compute_ms + p.controller_rtt_ms + hops * p.per_hop_delay_ms


def control_overhead(
    mode: str,
    t: Topology,
    p: RoutingParams,
    duration_s: float,
    break_rate_per_s: float,
) -> float:
    """Bits of control traffic generated over ``duration_s``.

    Traditional networks flood a rediscovery across all links per route
    break; an SDN controller exchanges a fixed per-node message stream.
    """
    _check_mode(mode)
    if duration_s <= 0.0:
        raise ValueError("duration must be positive")
    if break_rate_per_s < 0:
        raise ValueError("break rate must be non-negative")
    if mode == "traditional":
        discoveries = break_rate_per_s * duration_s
        return discoveries * p.discovery_flood_factor * len(t.edges) * p.control_msg_bits
    return p.sdn_update_rate_per_node_s * len(t._degree) * duration_s * p.control_msg_bits
