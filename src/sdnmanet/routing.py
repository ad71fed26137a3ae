"""Closed-form routing models for traditional and SDN-controlled networks.

Covers the average and centrally optimized path costs, routing-table update
times, per-flow latency for both control architectures, and the bandwidth
consumed by control messaging (reactive flooding vs. controller unicast).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .topology import Topology, shortest_path


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
        for name in (
            "per_hop_delay_ms", "discovery_base_ms", "propagation_base_ms",
            "reconfig_base_ms", "controller_compute_ms", "controller_rtt_ms",
            "discovery_flood_factor", "sdn_update_rate_per_node_s", "control_msg_bits",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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


def avg_path_cost(costs: list[float]) -> float:
    """Arithmetic mean of per-node path costs."""
    if not costs:
        raise ValueError("cost sequence must be non-empty")
    if any(c < 0 for c in costs):
        raise ValueError("path costs must be non-negative")
    return sum(costs) / len(costs)


def sdn_path_cost(t: Topology, weights: PathCostWeights, src: int, dst: int) -> float:
    """Minimum over all src->dst paths of sum(weight_i * degree_i)."""
    _, cost = shortest_path(t, src, dst, weights.w)
    return cost


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
    if duration_s <= 0.0:
        raise ValueError("duration must be positive")
    if break_rate_per_s < 0:
        raise ValueError("break rate must be non-negative")
    if mode == "traditional":
        discoveries = break_rate_per_s * duration_s
        return discoveries * p.discovery_flood_factor * len(t.edges) * p.control_msg_bits
    if mode == "sdn":
        n = len(t.nodes)
        return p.sdn_update_rate_per_node_s * n * duration_s * p.control_msg_bits
    raise ValueError(f"mode must be 'traditional' or 'sdn', got {mode!r}")
