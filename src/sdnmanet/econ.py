"""CAPEX, OPEX, break-even, allocation-cost, and security-risk calculators.

Traditional networks pay per-node hardware, software, and full per-node
operations; SDN networks pay cheaper general-purpose nodes plus one
controller (capital and operations). Every node of a mode costs the same.
Default unit costs are calibrated so that at the 50-node reference point the
hardware-cost reduction is 25% and the operational reduction is 30%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import _check_fields

#: Largest break-even node count ``crossover_n`` reports.
CROSSOVER_MAX_N = 1_000_000


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
        _check_fields(self, non_negative=self.__dataclass_fields__)


@dataclass(frozen=True)
class RiskProfile:
    """Vulnerabilities as (exploitation probability, impact) pairs."""

    vulnerabilities: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for prob, impact in self.vulnerabilities:
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability {prob} outside [0, 1]")
            if not math.isfinite(impact):
                raise ValueError(f"impact {impact} must be finite")
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


def capex_traditional(n: int, params: CostParams) -> float:
    """Hardware plus software cost across all nodes."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    return n * (params.node_hw_traditional + params.node_sw_traditional)


def capex_sdn(n: int, params: CostParams) -> float:
    """General-purpose node hardware plus one controller; the controller
    price subsumes the software that traditional nodes carry individually."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    return n * params.node_hw_sdn + params.controller_capex


def opex_traditional(n: int, params: CostParams) -> float:
    """Per-period maintenance, monitoring, and configuration at every node."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    return n * (params.node_maint_traditional + params.node_monitor_traditional + params.node_config_traditional)


def opex_sdn(n: int, params: CostParams) -> float:
    """Controller operations plus reduced per-node maintenance."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    controller = params.controller_maint + params.controller_config + params.controller_monitor
    return controller + n * params.node_maint_sdn


def cost_reductions(n: int, params: CostParams) -> tuple[float, float]:
    """Hardware-capex and opex reductions of SDN at ``n`` nodes, each
    ``1 - sdn / traditional`` and NaN when the traditional cost is zero.

    The hardware reduction sets SDN hardware (nodes plus controller) against
    traditional node hardware alone, since the controller price subsumes the
    software that traditional nodes carry.
    """
    return (_reduction(capex_sdn(n, params), n * params.node_hw_traditional),
            _reduction(opex_sdn(n, params), opex_traditional(n, params)))


def _reduction(sdn: float, traditional: float) -> float:
    return 1.0 - sdn / traditional if traditional else math.nan


def crossover_n(params: CostParams) -> int | None:
    """Exact break-even of the model: the smallest node count n >= 1 at
    which total SDN cost (capex + opex) is at most the traditional total;
    ``None`` when no n up to ``CROSSOVER_MAX_N`` qualifies.

    The four cost functions only add and multiply, so on a copy of
    ``params`` held as fractions they return exact totals, and their gap
    is linear in n. When the per-node saving is a few units in the last
    place, the float totals printed at the answer can still show SDN dearer
    by rounding.
    """
    # Imported here, not at module level: fractions pulls in decimal, which
    # every CLI run would pay for, while only ``sdnmanet cost`` calls this.
    from fractions import Fraction

    exact = CostParams(**{name: Fraction(getattr(params, name)) for name in params.__dataclass_fields__})

    def gap(n: int) -> Fraction:
        return (capex_sdn(n, exact) + opex_sdn(n, exact)
                - capex_traditional(n, exact) - opex_traditional(n, exact))

    first = gap(1)
    if first <= 0:
        return 1
    slope = gap(2) - first
    if slope >= 0:
        return None
    n = 1 + math.ceil(first / -slope)
    return n if n <= CROSSOVER_MAX_N else None


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


def security_risk(r: RiskProfile) -> float:
    """Aggregate risk score: probability times impact, summed."""
    return sum(prob * impact for prob, impact in r.vulnerabilities)
