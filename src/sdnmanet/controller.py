"""SDN controller as a finite-capacity request server.

Two deliberately decoupled views of the same bottleneck:

* the request backlog follows literal queueing (a fluid bound plus one
  simulated M/D/1 realization that reports the backlog at the horizon),
  growing without limit once the aggregate event rate exceeds the service
  capacity;
* the reported request latency follows a saturating curve that rises with
  network size but asymptotically respects the configured threshold.

A FIFO queue in permanent overload would imply unbounded waits, so no
single model can both show the near-linear backlog growth and keep latency
under the threshold; the pair below reproduces both behaviors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._checks import _check_fields
from .rng import arrival_times, poisson

@dataclass(frozen=True)
class ControllerConfig:
    """Capacity and load parameters of the central controller."""

    capacity_mu: float = 10.0           # requests served per second
    event_rate_lambda: float = 20.0     # events per second per node
    latency_threshold_ms: float = 30.0  # acceptable request latency
    sim_duration_s: float = 30.0
    half_saturation_nodes: int = 40     # nodes at which latency reaches half the threshold

    def __post_init__(self) -> None:
        _check_fields(self, positive=("capacity_mu", "latency_threshold_ms", "sim_duration_s",
                                      "half_saturation_nodes"), non_negative=("event_rate_lambda",))


@dataclass(frozen=True)
class QueueOutcome:
    """What one controller simulation leaves at the horizon."""

    served_latencies_ms: tuple[float, ...]
    final_backlog: int


def fluid_backlog(n: int, cfg: ControllerConfig) -> float:
    """Deterministic backlog bound: excess arrival rate times duration."""
    if n < 0:
        raise ValueError("node count must be non-negative")
    excess = n * cfg.event_rate_lambda - cfg.capacity_mu
    return max(0.0, excess * cfg.sim_duration_s)


def simulate_queue(n: int, cfg: ControllerConfig, seed: int) -> QueueOutcome:
    """One realization of the controller queue up to the horizon.

    Poisson arrivals at aggregate rate ``n * event_rate_lambda``,
    deterministic service at ``capacity_mu``, FIFO order. Returns the
    latencies of the requests completed by the horizon and the backlog
    there: requests arrived but not completed. Bit-reproducible for a given
    seed.

    Gaps are drawn only until the first request that completes past the
    horizon, at arrival time ``a``: every later request completes later
    still, and by the independent increments of a Poisson process the
    arrivals left in (a, horizon] are one Poisson(rate * (horizon - a))
    count.
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    horizon = cfg.sim_duration_s
    service = 1.0 / cfg.capacity_mu
    rate = n * cfg.event_rate_lambda
    rng = random.Random(seed)
    latencies: list[float] = []
    arrived, done = 0, 0.0
    for arrived, a in enumerate(arrival_times(rng, rate, horizon), 1):
        done = (a if a > done else done) + service
        if done > horizon:
            arrived += poisson(rng, rate * (horizon - a))
            break
        latencies.append((done - a) * 1000.0)
    return QueueOutcome(served_latencies_ms=tuple(latencies), final_backlog=arrived - len(latencies))


def max_latency_model(n: int, cfg: ControllerConfig) -> float:
    """Worst-case request latency in ms: rises with n, saturates below the
    threshold (``threshold * n / (n + half_saturation_nodes)``)."""
    if n < 0:
        raise ValueError("node count must be non-negative")
    return cfg.latency_threshold_ms * n / (n + cfg.half_saturation_nodes)
