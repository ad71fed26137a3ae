"""Controller resource-utilization curves versus network size.

Each resource follows a clamped power law ``100 * (n / saturation)**alpha``.
Exponents fall from CPU (strongly super-linear) to storage (sub-linear);
saturation points are spaced so the four curves never cross below the CPU
saturation point, keeping the utilization ordering
cpu >= memory >= network >= storage for every node count from 1 up. That
spacing is what forces the network and storage saturation constants to sit
far above the sweep range.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import _check_fields

RESOURCE_KINDS = ("cpu", "memory", "network", "storage")


@dataclass(frozen=True)
class ResourceCurveParams:
    """Exponent and saturation node count per resource kind."""

    cpu_alpha: float = 2.0
    cpu_saturation_n: float = 180.0
    memory_alpha: float = 1.8
    memory_saturation_n: float = 330.0
    network_alpha: float = 1.3
    network_saturation_n: float = 3200.0
    storage_alpha: float = 0.6
    storage_saturation_n: float = 40_000_000.0

    def __post_init__(self) -> None:
        _check_fields(self, positive=self.__dataclass_fields__)


def utilization(kind: str, n: int, params: ResourceCurveParams) -> float:
    """Utilization percentage of one resource at ``n`` nodes, capped at 100."""
    if n < 0:
        raise ValueError("node count must be non-negative")
    if kind not in RESOURCE_KINDS:
        raise ValueError(f"unknown resource kind {kind!r}, expected one of {RESOURCE_KINDS}")
    ratio = n / getattr(params, f"{kind}_saturation_n")
    return min(100.0, 100.0 * ratio ** getattr(params, f"{kind}_alpha"))


def first_bottleneck(params: ResourceCurveParams, n_max: int) -> tuple[str, int] | None:
    """First resource to hit 100% while scaling n from 1 to ``n_max``.

    Returns ``(kind, n)`` or ``None`` when nothing saturates in range; ties
    at the same n resolve in RESOURCE_KINDS order.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    for n in range(1, n_max + 1):
        for kind in RESOURCE_KINDS:
            if utilization(kind, n, params) >= 100.0:
                return kind, n
    return None
