"""Control-message overhead and effective network capacity for both modes.

Overhead follows a pairwise model: every linked node pair contributes
control packets in proportion to its distance and the mean node speed.
Effective capacity is the node capacity sum (plus the controller's own
contribution in SDN mode) minus the overhead rate, clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .topology import Topology
# Unused here, but bench/test_sweep_bench.py checks that its tracer wraps this binding.
from .topology import distance  # noqa: F401


@dataclass(frozen=True)
class OverheadParams:
    """Pairwise control-traffic model parameters."""

    packet_size_bits: int = 512
    pair_coefficient: float = 0.001  # packets per (meter * m/s * second)
    flood_multiplier: float = 1.5    # traditional-mode flooding penalty

    def __post_init__(self) -> None:
        for name in ("packet_size_bits", "pair_coefficient", "flood_multiplier"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.packet_size_bits <= 0:
            raise ValueError("packet_size_bits must be positive")
        if self.pair_coefficient < 0 or self.flood_multiplier < 0:
            raise ValueError("coefficients must be non-negative")


@dataclass(frozen=True)
class CapacityGains:
    """Multiplicative uplift from hierarchical clustering and slicing.

    The network splits into a clustered share and a sliced share, each
    scaled by its own gain; defaults yield a 1.35x aggregate uplift.
    """

    clustered_share: float = 0.6
    clustered_gain: float = 1.25
    sliced_share: float = 0.4
    sliced_gain: float = 1.5

    def __post_init__(self) -> None:
        for name in ("clustered_share", "clustered_gain", "sliced_share", "sliced_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("clustered_share", "sliced_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        for name in ("clustered_gain", "sliced_gain"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CapacityBreakdown:
    """Effective capacity and the terms it was computed from, bits/s."""

    node_sum: float
    controller: float
    overhead: float
    effective: float
    saturated: bool


def pairwise_packet_count(
    t: Topology,
    mean_speed: float,
    params: OverheadParams,
    window_s: float,
) -> int:
    """Control packets generated along existing links over ``window_s``.

    Each edge contributes ``round(coefficient * distance * mean_speed *
    window)`` packets (banker's rounding, like the built-in).
    """
    if window_s <= 0.0:
        raise ValueError("window must be positive")
    pos, dist, coefficient = t.positions, math.dist, params.pair_coefficient
    return sum([round(coefficient * dist(pos[a], pos[b]) * mean_speed * window_s) for a, b in t.edges])


def overhead_bits(packets: int, params: OverheadParams) -> float:
    """Total overhead: packet count times packet size."""
    if packets < 0:
        raise ValueError("packet count must be non-negative")
    return packets * params.packet_size_bits


def capacity_sdn(
    node_capacities: Sequence[float],
    controller_capacity: float,
    overhead: float,
) -> CapacityBreakdown:
    """Node capacities plus the controller's contribution, minus overhead."""
    if controller_capacity < 0 or overhead < 0 or any(c < 0 for c in node_capacities):
        raise ValueError("capacities and overhead must be non-negative")
    node_sum = sum(node_capacities)
    raw = node_sum + controller_capacity - overhead
    return CapacityBreakdown(
        node_sum=node_sum,
        controller=controller_capacity,
        overhead=overhead,
        effective=max(0.0, raw),
        saturated=raw < 0.0,
    )


def capacity_traditional(
    node_capacities: Sequence[float],
    flood_overhead: float,
) -> CapacityBreakdown:
    """Node capacities minus flooding overhead; no controller term."""
    if flood_overhead < 0 or any(c < 0 for c in node_capacities):
        raise ValueError("capacities and overhead must be non-negative")
    node_sum = sum(node_capacities)
    raw = node_sum - flood_overhead
    return CapacityBreakdown(
        node_sum=node_sum,
        controller=0.0,
        overhead=flood_overhead,
        effective=max(0.0, raw),
        saturated=raw < 0.0,
    )


def effective_capacity(
    mode: str,
    t: Topology,
    mean_speed: float,
    params: OverheadParams,
    controller_capacity: float,
    window_s: float,
) -> CapacityBreakdown:
    """Capacity breakdown of ``t`` in ``mode``, which the caller has checked.

    The pairwise overhead rate over ``window_s`` comes off the node
    capacities: scaled by the flooding multiplier in traditional mode, with
    the controller's capacity added in SDN mode.
    """
    packets = pairwise_packet_count(t, mean_speed, params, window_s)
    rate = overhead_bits(packets, params) / window_s
    if mode == "sdn":
        return capacity_sdn(t.capacities_bps, controller_capacity, rate)
    return capacity_traditional(t.capacities_bps, params.flood_multiplier * rate)


def capacity_total(clustered: float, sliced: float) -> float:
    """Combined capacity of the clustered and sliced portions."""
    if clustered < 0 or sliced < 0:
        raise ValueError("capacities must be non-negative")
    return clustered + sliced


def clustered_sliced_capacity(baseline: float, gains: CapacityGains) -> float:
    """Capacity after management uplift: each share scaled by its gain."""
    if baseline < 0:
        raise ValueError("baseline capacity must be non-negative")
    clustered = baseline * gains.clustered_share * gains.clustered_gain
    sliced = baseline * gains.sliced_share * gains.sliced_gain
    return capacity_total(clustered, sliced)


def max_supported_nodes(
    mode: str,
    per_node_demand: float,
    params: OverheadParams,
    topology_generator: Callable[[int], Topology],
    mean_speed: float,
    controller_capacity: float = 0.0,
    n_max: int = 200,
) -> int:
    """Largest node count whose effective capacity still covers demand.

    Scans ``n_max`` down to 1 for the largest ``n`` with
    ``effective_capacity(n) >= n * per_node_demand``; returns 0 when no
    ``n`` can be served. ``topology_generator`` must return a deterministic
    topology for each ``n``. Each ``n`` draws its own graph, so a smaller
    ``n`` may fail where a larger one passes, and no bisection is sound.
    """
    if per_node_demand <= 0.0:
        raise ValueError("per-node demand must be positive")
    if mode not in ("traditional", "sdn"):
        raise ValueError(f"mode must be 'traditional' or 'sdn', got {mode!r}")
    for n in range(n_max, 0, -1):
        t = topology_generator(n)
        breakdown = effective_capacity(mode, t, mean_speed, params, controller_capacity, 1.0)
        if breakdown.effective >= n * per_node_demand:
            return n
    return 0
