"""Control-message overhead and effective network capacity for both modes.

Overhead follows a pairwise model: every linked node pair contributes
control packets in proportion to its distance and the mean node speed.
Effective capacity is the node capacity sum (plus the controller's own
contribution in SDN mode) minus the overhead rate, clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._checks import _check_fields, _check_mode
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
        _check_fields(self, positive=("packet_size_bits",),
                      non_negative=("pair_coefficient", "flood_multiplier"))


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
        _check_fields(self, non_negative=("clustered_gain", "sliced_gain"),
                      unit_interval=("clustered_share", "sliced_share"))


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
    window)`` packets (banker's rounding, like the built-in). Raises
    ``ValueError`` for a non-positive window or a negative or NaN mean speed.
    """
    if window_s <= 0.0:
        raise ValueError("window must be positive")
    if not mean_speed >= 0:  # NaN fails too
        raise ValueError("mean speed must be non-negative")
    pos, dist, coefficient = t.positions, math.dist, params.pair_coefficient
    return sum([round(coefficient * dist(pos[a], pos[b]) * mean_speed * window_s) for a, b in t.edges])


def effective_capacity(
    mode: str,
    n: int,
    packets: int,
    node_capacity: float,
    params: OverheadParams,
    controller_capacity: float,
    window_s: float,
) -> CapacityBreakdown:
    """Capacity breakdown of ``n`` nodes in ``mode``, each carrying ``node_capacity``,
    that send ``packets`` control packets over ``window_s``.

    The overhead rate is ``packets`` times ``packet_size_bits``, per second;
    traditional mode scales it by the flooding multiplier. It comes off the
    node capacity sum, plus the controller's capacity in SDN mode only, and
    the result is clamped at zero, with ``saturated`` set when the overhead
    exceeds the capacity. Raises ``ValueError`` for an unknown mode, a negative
    or NaN capacity or packet count, or a non-positive window.
    """
    _check_mode(mode)
    if not (controller_capacity >= 0 and node_capacity >= 0 and packets >= 0 and window_s > 0):  # NaN fails
        raise ValueError("capacities and packet count must be non-negative, and the window positive")
    rate = packets * params.packet_size_bits / window_s
    node_sum = n * node_capacity
    if mode == "sdn":
        controller, overhead = controller_capacity, rate
    else:
        controller, overhead = 0.0, params.flood_multiplier * rate
    raw = node_sum + controller - overhead
    return CapacityBreakdown(node_sum, controller, overhead, max(0.0, raw), raw < 0.0)


def clustered_sliced_capacity(baseline: float, gains: CapacityGains) -> float:
    """Capacity after management uplift: each share scaled by its gain."""
    if not baseline >= 0:  # NaN fails too
        raise ValueError("baseline capacity must be non-negative")
    clustered = baseline * gains.clustered_share * gains.clustered_gain
    sliced = baseline * gains.sliced_share * gains.sliced_gain
    return clustered + sliced


def max_supported_nodes(
    mode: str,
    per_node_demand: float,
    node_capacity: float,
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
    if not per_node_demand > 0.0:  # NaN fails too
        raise ValueError("per-node demand must be positive")
    _check_mode(mode)
    for n in range(n_max, 0, -1):
        packets = pairwise_packet_count(topology_generator(n), mean_speed, params, 1.0)
        breakdown = effective_capacity(mode, n, packets, node_capacity, params, controller_capacity, 1.0)
        if breakdown.effective >= n * per_node_demand:
            return n
    return 0
