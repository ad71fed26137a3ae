"""CAPEX, OPEX, efficiency, allocation-cost, and security-risk calculators.

Traditional networks pay per-node hardware, software, and full per-node
operations; SDN networks pay cheaper general-purpose nodes plus one
controller (capital and operations). Default unit costs are calibrated so
that at the 50-node reference point the hardware-cost reduction is 25% and
the operational reduction is 30%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class CostParams:
    """Unit costs, currency per node or per controller (per period for opex)."""

    node_hw_traditional: float = 100.0
    node_sw_traditional: float = 20.0
    node_hw_sdn: float = 60.0
    controller_capex: float = 750.0
    node_maint_traditional: float = 10.0
    node_monitor_traditional: float = 10.0
    node_config_traditional: float = 10.0
    controller_maint: float = 100.0
    controller_config: float = 100.0
    controller_monitor: float = 100.0
    node_maint_sdn: float = 15.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EfficiencyParams:
    """Inputs of the transmission-efficiency figure."""

    useful_data: float       # bits
    total_bandwidth: float   # bits
    eta_optimization: float  # > 1, centralized-optimization uplift

    def __post_init__(self) -> None:
        if not 0 <= self.useful_data <= self.total_bandwidth:
            raise ValueError("useful_data must be within [0, total_bandwidth]")
        if self.eta_optimization <= 1.0:
            raise ValueError("eta_optimization must exceed 1")


@dataclass(frozen=True)
class RiskProfile:
    """Vulnerabilities as (exploitation probability, impact) pairs."""

    vulnerabilities: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for prob, impact in self.vulnerabilities:
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability {prob} outside [0, 1]")
            if impact < 0.0:
                raise ValueError("impact must be non-negative")


@dataclass(frozen=True)
class AllocationState:
    """Bandwidth and power granted to each node against shared totals."""

    bandwidth_alloc: tuple[float, ...]  # bits/s per node
    power_alloc: tuple[float, ...]      # watts per node
    bandwidth_total: float
    power_total: float

    def __post_init__(self) -> None:
        if len(self.bandwidth_alloc) != len(self.power_alloc):
            raise ValueError("bandwidth and power allocations must align")
        if any(b < 0 for b in self.bandwidth_alloc) or any(p < 0 for p in self.power_alloc):
            raise ValueError("allocations must be non-negative")
        if self.bandwidth_total < 0 or self.power_total < 0:
            raise ValueError("totals must be non-negative")
        slack = 1.0 + 1e-9
        if sum(self.bandwidth_alloc) > self.bandwidth_total * slack + 1e-12:
            raise ValueError("bandwidth allocations exceed the total")
        if sum(self.power_alloc) > self.power_total * slack + 1e-12:
            raise ValueError("power allocations exceed the total")


def _cost_for(i: int, params: CostParams, per_node: Mapping[int, CostParams] | None) -> CostParams:
    if per_node is not None and i in per_node:
        return per_node[i]
    return params


def capex_traditional(
    n: int,
    params: CostParams,
    per_node: Mapping[int, CostParams] | None = None,
) -> float:
    """Hardware plus software cost across all nodes."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    return sum(
        _cost_for(i, params, per_node).node_hw_traditional
        + _cost_for(i, params, per_node).node_sw_traditional
        for i in range(n)
    )


def capex_sdn(
    n: int,
    params: CostParams,
    per_node: Mapping[int, CostParams] | None = None,
) -> float:
    """General-purpose node hardware plus one controller; the controller
    price subsumes the software that traditional nodes carry individually."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    nodes = sum(_cost_for(i, params, per_node).node_hw_sdn for i in range(n))
    return nodes + params.controller_capex


def opex_traditional(
    n: int,
    params: CostParams,
    per_node: Mapping[int, CostParams] | None = None,
) -> float:
    """Per-period maintenance, monitoring, and configuration at every node."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    total = 0.0
    for i in range(n):
        c = _cost_for(i, params, per_node)
        total += c.node_maint_traditional + c.node_monitor_traditional + c.node_config_traditional
    return total


def opex_sdn(
    n: int,
    params: CostParams,
    per_node: Mapping[int, CostParams] | None = None,
) -> float:
    """Controller operations plus reduced per-node maintenance."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    controller = params.controller_maint + params.controller_config + params.controller_monitor
    return controller + sum(_cost_for(i, params, per_node).node_maint_sdn for i in range(n))


def crossover_n(params: CostParams, max_n: int = 1_000_000) -> int | None:
    """Smallest node count at which total SDN cost stops exceeding the
    traditional total (capex + opex); ``None`` when it never does within
    ``max_n`` nodes.

    Scans the linear totals upward from n=1 rather than solving the
    break-even equation, so it stays valid if the cost structure stops
    being homogeneous.
    """
    per_node_trad = (
        params.node_hw_traditional + params.node_sw_traditional
        + params.node_maint_traditional + params.node_monitor_traditional
        + params.node_config_traditional
    )
    per_node_sdn = params.node_hw_sdn + params.node_maint_sdn
    fixed_sdn = (
        params.controller_capex + params.controller_maint
        + params.controller_config + params.controller_monitor
    )
    if per_node_sdn >= per_node_trad:
        # No per-node saving: either SDN already wins at n=1 or never will.
        return 1 if per_node_sdn + fixed_sdn <= per_node_trad else None
    for n in range(1, max_n + 1):
        if n * per_node_sdn + fixed_sdn <= n * per_node_trad:
            return n
    return None


def efficiency(params: EfficiencyParams) -> float:
    """Transmission efficiency: useful share of bandwidth scaled by the
    optimization uplift."""
    return params.useful_data / params.total_bandwidth * params.eta_optimization


def allocation_cost(a: AllocationState) -> float:
    """Sum over nodes of normalized bandwidth plus normalized power.

    2.0 means both resources are fully allocated; 0 means nothing is.
    """
    cost = 0.0
    for b, p in zip(a.bandwidth_alloc, a.power_alloc):
        if b > 0 and a.bandwidth_total == 0:
            raise ValueError("nonzero bandwidth allocation against zero total")
        if p > 0 and a.power_total == 0:
            raise ValueError("nonzero power allocation against zero total")
        if a.bandwidth_total > 0:
            cost += b / a.bandwidth_total
        if a.power_total > 0:
            cost += p / a.power_total
    return cost


def balance_allocation(
    demands_bw: list[float],
    demands_pw: list[float],
    totals: tuple[float, float],
) -> AllocationState:
    """Grant demands verbatim when feasible; otherwise scale every demand of
    the oversubscribed resource by one common factor so its total is met."""
    if len(demands_bw) != len(demands_pw):
        raise ValueError("bandwidth and power demands must align")
    if any(d < 0 for d in demands_bw) or any(d < 0 for d in demands_pw):
        raise ValueError("demands must be non-negative")
    bw_total, pw_total = totals
    sum_bw, sum_pw = sum(demands_bw), sum(demands_pw)
    scale_bw = 1.0 if sum_bw <= bw_total else bw_total / sum_bw
    scale_pw = 1.0 if sum_pw <= pw_total else pw_total / sum_pw
    return AllocationState(
        bandwidth_alloc=tuple(d * scale_bw for d in demands_bw),
        power_alloc=tuple(d * scale_pw for d in demands_pw),
        bandwidth_total=bw_total,
        power_total=pw_total,
    )


def security_risk(r: RiskProfile) -> float:
    """Aggregate risk score: probability times impact, summed."""
    return sum(prob * impact for prob, impact in r.vulnerabilities)
