"""Sweep harness: runs paired traditional/SDN scenarios across node counts.

A scenario run is a graph of stages. ``build_world(cfg, n, seed)`` runs the
mode-free ones into a ``World``: the graph (reads n and the seed), its
random-waypoint motion (the graph's positions), the flow sample (the graph's
adjacency only) and the control packet count (the final positions).
``evaluate(cfg, world, mode)`` runs the per-mode ones: the controller queue
(n and the seed, SDN only), then the closed-form latency, delivery,
throughput, overhead, capacity and resource models (the world's n, hop
counts, edge count and packet count). ``run_scenario`` composes the two.
The sweep averages every metric over a configurable number of seeds per
node count, and the comparison reduces the pairs to SDN-versus-traditional ratios.

Scale couplings declared here rather than measured anywhere: the route
break rate grows with mean node speed and with network size
(``base * (speed / reference_speed) * (1 + n / 100)``), and the break rate,
optimization uplift, and capacity constants default to values calibrated so
the 50-node reference comparison lands on a 25% hardware-cost reduction,
30% opex reduction, 40% latency reduction, and 20% throughput gain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from . import capacity as cap
from . import controller as ctl
from . import econ
from . import resources as res
from . import routing as rt
from ._checks import MODES, _FieldError, _check_fields, _check_mode
from .rng import derive_seed, rand_index
from .topology import NoRouteError, Topology, generate_erdos_renyi, route_costs, shortest_path, step_mobility

# Flows to one destination from which one route_costs search serves them all: flow_heavy
# routing per mode took 0.206 s with none, 0.114 s from 3 flows, 0.113-0.119 s from 2, 4, 5 or 6.
_TREE_MIN_FLOWS = 3


@dataclass(frozen=True)
class SweepSettings:
    """Node counts visited by a sweep: start, start+step, ..., end."""

    start: int = 20
    end: int = 200
    step: int = 30

    def __post_init__(self) -> None:
        _check_fields(self, positive=("start", "step"))
        if self.end < self.start:
            raise _FieldError(("end", "start"), "must not precede")


@dataclass(frozen=True)
class TopologySettings:
    """Graph, placement, and mobility parameters."""

    link_probability: float = 0.05
    area_width_m: float = 1000.0
    area_height_m: float = 1000.0
    node_capacity_bps: float = 15_000.0
    speed_min_mps: float = 1.0
    speed_max_mps: float = 10.0
    mobility_step_s: float = 1.0

    def __post_init__(self) -> None:
        _check_fields(self, positive=("area_width_m", "area_height_m", "node_capacity_bps",
                                      "mobility_step_s"),
                      non_negative=("speed_min_mps",), unit_interval=("link_probability",))
        if self.speed_min_mps > self.speed_max_mps:
            raise _FieldError(("speed_min_mps", "speed_max_mps"), "must not exceed")


@dataclass
class ScenarioConfig:
    """Full parameterization of one simulated network comparison."""

    seed: int = 42
    seeds_per_point: int = 10
    sim_duration_s: float = 30.0
    flow_samples: int = 30
    per_node_demand_bps: float = 10_000.0
    controller_capacity_bps: float = 10_000.0
    # Calibrated constants; see module docstring.
    eta_optimization: float = 1.173
    rediscovery_base_rate: float = 0.331
    reference_speed_mps: float = 5.5
    latency_window_s: float = 1.0
    reference_n: int = 50
    sweep: SweepSettings = field(default_factory=SweepSettings)
    topology: TopologySettings = field(default_factory=TopologySettings)
    controller: ctl.ControllerConfig = field(default_factory=ctl.ControllerConfig)
    routing: rt.RoutingParams = field(default_factory=rt.RoutingParams)
    overhead: cap.OverheadParams = field(default_factory=cap.OverheadParams)
    costs: econ.CostParams = field(default_factory=econ.CostParams)
    resources: res.ResourceCurveParams = field(default_factory=res.ResourceCurveParams)

    def validate(self) -> None:
        """Check the root fields; each settings group checks itself when built."""
        _check_fields(self, positive=("seeds_per_point", "sim_duration_s", "flow_samples",
                                      "per_node_demand_bps", "reference_speed_mps",
                                      "latency_window_s", "reference_n"),
                      non_negative=("controller_capacity_bps", "rediscovery_base_rate"))
        if self.eta_optimization <= 1.0:
            raise _FieldError(("eta_optimization",), "must exceed 1")
        if self.controller.sim_duration_s != self.sim_duration_s:
            raise ValueError("controller.sim_duration_s must equal sim_duration_s")

    def sweep_points(self) -> list[int]:
        return list(range(self.sweep.start, self.sweep.end + 1, self.sweep.step))

    def mean_speed_mps(self) -> float:
        return 0.5 * (self.topology.speed_min_mps + self.topology.speed_max_mps)


@dataclass(frozen=True)
class MetricsReport:
    """Per-scenario outputs for one (n, mode) pair.

    For SDN runs the average latency comes from the per-flow routing model
    while the maximum comes from the controller's saturating curve; the two
    are deliberately decoupled, so the usual avg <= max relation is only
    guaranteed for traditional runs.
    """

    n: int
    mode: str
    latency_avg_ms: float
    latency_max_ms: float
    throughput_bps: float
    pdr: float
    control_overhead_bits: float
    queue_backlog: float
    effective_capacity_bps: float
    cpu_pct: float
    mem_pct: float
    net_pct: float
    storage_pct: float
    saturated: bool


#: The ``MetricsReport`` column of each controller resource, in
#: ``resources.RESOURCE_KINDS`` order.
RESOURCE_COLUMNS = ("cpu_pct", "mem_pct", "net_pct", "storage_pct")


@dataclass(frozen=True)
class ComparisonRow:
    """SDN-versus-traditional ratios at one node count."""

    n: int
    capex_reduction: float
    opex_reduction: float
    latency_reduction: float
    throughput_gain: float
    pdr_delta: float
    overhead_ratio: float
    capacity_ratio: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-n comparison rows plus the headline row at the reference size."""

    rows: tuple[ComparisonRow, ...]
    headline: ComparisonRow


def rediscovery_rate(cfg: ScenarioConfig, n: int) -> float:
    """Route breaks per second at ``n`` nodes: mobility- and scale-driven."""
    speed_factor = cfg.mean_speed_mps() / cfg.reference_speed_mps
    return cfg.rediscovery_base_rate * speed_factor * (1.0 + n / 100.0)


def pdr_model(break_rate: float, repair_time_ms: float) -> float:
    """Packet delivery ratio when each break blacks a route out for the
    repair time: 1 - break_rate * repair_time.

    The observation window cancels out of the loss fraction (breaks scale
    with the window exactly as delivered packets do), and the mode enters
    only through the repair time.
    """
    if break_rate < 0 or repair_time_ms < 0:
        raise ValueError("break rate and repair time must be non-negative")
    return min(1.0, max(0.0, 1.0 - break_rate * repair_time_ms / 1000.0))


def throughput_model(
    mode: str,
    effective_capacity: float,
    offered_load: float,
    pdr: float,
    eta_opt: float,
) -> float:
    """Delivered bits/s: offered load capped by capacity, thinned by the
    delivery ratio; SDN mode additionally earns the optimization uplift,
    never exceeding the effective capacity."""
    _check_mode(mode)
    if effective_capacity < 0 or offered_load < 0 or pdr < 0 or eta_opt < 0:
        raise ValueError("throughput inputs must be non-negative")
    delivered = min(offered_load, effective_capacity) * pdr
    if mode == "sdn":
        delivered = min(delivered * eta_opt, effective_capacity)
    return delivered


def evolve_topology(cfg: ScenarioConfig, n: int, seed: int) -> Topology:
    topo = generate_erdos_renyi(
        n,
        cfg.topology.link_probability,
        derive_seed(seed, 1),
        area=(cfg.topology.area_width_m, cfg.topology.area_height_m),
    )
    steps, mobility_seed = int(round(cfg.sim_duration_s / cfg.topology.mobility_step_s)), derive_seed(seed, 2)
    speed_range = (cfg.topology.speed_min_mps, cfg.topology.speed_max_mps)
    for k in range(steps):  # salts fold in turn: derive_seed(mobility_seed, k) == derive_seed(seed, 2, k)
        topo = step_mobility(topo, cfg.topology.mobility_step_s, speed_range, derive_seed(mobility_seed, k))
    return topo


def _sample_hops(cfg: ScenarioConfig, topo: Topology, seed: int) -> list[int]:
    """Hop lengths of the cost-optimal paths of the routable sampled flows, in flow order;
    a flow with no route is left out (its packets are lost), and one node samples none."""
    n = len(topo._degree)
    if n < 2:
        return []
    rng = random.Random(seed)
    flows_to: dict[int, list[tuple[int, int]]] = {}  # dst -> (flow index, src), in flow order
    for flow in range(cfg.flow_samples):
        src, dst = rand_index(rng, n), rand_index(rng, n - 1)  # drawn in this order
        flows_to.setdefault(dst + (dst >= src), []).append((flow, src))
    hops: dict[int, int] = {}
    for dst, flows in flows_to.items():  # a tree lives only while its own flows route
        tree = route_costs(topo, dst) if len(flows) >= _TREE_MIN_FLOWS else None
        for flow, src in flows:
            try:
                hops[flow] = len(shortest_path(topo, src, dst, tree)[0]) - 1
            except NoRouteError:
                pass
    return [hops[flow] for flow in sorted(hops)]


@dataclass(frozen=True)
class World:
    """The mode-free stage outputs of one (n, seed) run: the evolved graph, the
    hop counts of its routable sampled flows, and its control packet count."""

    n: int
    seed: int
    topology: Topology
    hops: list[int]
    packets: int


def build_world(cfg: ScenarioConfig, n: int, seed: int) -> World:
    """Graph and motion (seeds (seed, 1) and (seed, 2, k)), flows (seed, 3), then packets."""
    topo = evolve_topology(cfg, n, seed)
    hops = _sample_hops(cfg, topo, derive_seed(seed, 3))
    packets = cap.pairwise_packet_count(topo, cfg.mean_speed_mps(), cfg.overhead, cfg.sim_duration_s)
    return World(n, seed, topo, hops, packets)


def capacity_breakdown(cfg: ScenarioConfig, mode: str, world: World) -> cap.CapacityBreakdown:
    """Effective capacity of ``world`` in ``mode`` over the scenario horizon."""
    return cap.effective_capacity(
        mode, world.n, world.packets, cfg.topology.node_capacity_bps, cfg.overhead,
        cfg.controller_capacity_bps, cfg.sim_duration_s,
    )


def evaluate(cfg: ScenarioConfig, world: World, mode: str) -> MetricsReport:
    """The controller queue (SDN only, seed (seed, 4)), the closed-form models and the report;
    ``world`` must come from ``build_world`` on this ``cfg``, and serves both modes."""
    _check_mode(mode)
    n, hops, params, break_rate = world.n, world.hops or [1], cfg.routing, rediscovery_rate(cfg, world.n)
    if mode == "sdn":
        per_flow = [rt.latency_sdn(params, h) for h in hops]
        latency_max = ctl.max_latency_model(n, cfg.controller)
        repair_ms = rt.sdn_update_time(params)
        backlog = float(ctl.simulate_queue(n, cfg.controller, derive_seed(world.seed, 4)).final_backlog)
        usage = [res.utilization(kind, n, cfg.resources) for kind in res.RESOURCE_KINDS]
    else:
        per_flow = [rt.latency_manet(params, h, cfg.latency_window_s, break_rate) for h in hops]
        latency_max = max(per_flow)
        repair_ms = rt.update_time(params)
        backlog, usage = 0.0, [0.0] * len(RESOURCE_COLUMNS)
    routable_fraction = len(world.hops) / cfg.flow_samples if n > 1 else 1.0
    pdr = pdr_model(break_rate, repair_ms) * routable_fraction
    breakdown = capacity_breakdown(cfg, mode, world)
    throughput = throughput_model(mode, breakdown.effective, n * cfg.per_node_demand_bps, pdr,
                                  cfg.eta_optimization)
    return MetricsReport(
        n=n, mode=mode, latency_avg_ms=sum(per_flow) / len(per_flow), latency_max_ms=latency_max,
        throughput_bps=throughput, pdr=pdr,
        control_overhead_bits=rt.control_overhead(mode, world.topology, params, cfg.sim_duration_s, break_rate),
        queue_backlog=backlog, effective_capacity_bps=breakdown.effective,
        **dict(zip(RESOURCE_COLUMNS, usage)), saturated=breakdown.saturated,
    )


def run_scenario(cfg: ScenarioConfig, n: int, mode: str, seed: int) -> MetricsReport:
    """Evaluate every model for one (node count, mode, seed) combination."""
    cfg.validate()
    _check_mode(mode)
    return evaluate(cfg, build_world(cfg, n, seed), mode)


def _mean_reports(reports: list[MetricsReport]) -> MetricsReport:
    """Seed average: float fields are means, a bool is set if any run set
    it, and the key fields (n, mode), equal across the runs, are kept."""
    values = {}
    for f in fields(MetricsReport):
        column = [getattr(r, f.name) for r in reports]
        if f.type == "float":
            values[f.name] = sum(column) / len(column)
        elif f.type == "bool":
            values[f.name] = any(column)
        else:
            values[f.name] = column[0]
    return MetricsReport(**values)


def sweep(cfg: ScenarioConfig) -> list[tuple[MetricsReport, MetricsReport]]:
    """One (traditional, sdn) report pair per sweep point, seed-averaged.

    Each run's seed is ``derive_seed(cfg.seed, point_index, seed_index)``, so
    no two runs of a sweep share a stream. Both modes of a given run share a
    seed, so they see the identical topology, mobility history, and flow sample.
    """
    cfg.validate()
    pairs: list[tuple[MetricsReport, MetricsReport]] = []
    for point_index, n in enumerate(cfg.sweep_points()):
        per_mode: dict[str, list[MetricsReport]] = {m: [] for m in MODES}
        for seed_index in range(cfg.seeds_per_point):
            run_seed = derive_seed(cfg.seed, point_index, seed_index)
            for mode in MODES:
                try:
                    per_mode[mode].append(run_scenario(cfg, n, mode, run_seed))
                except ValueError as exc:
                    raise ValueError(f"sweep point n={n}, seed={run_seed}, mode={mode}: {exc}; replay: "
                                     f"sdnmanet simulate <config> --n {n} --mode {mode} --seed {run_seed}") from exc
        pairs.append((_mean_reports(per_mode["traditional"]), _mean_reports(per_mode["sdn"])))
    return pairs


def _ratio(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        return float("nan")
    return numerator / denominator


def compare(
    pairs: list[tuple[MetricsReport, MetricsReport]],
    costs: econ.CostParams,
    reference_n: int,
) -> ComparisonReport:
    """Reduce paired sweep output to SDN-versus-traditional ratios."""
    if not pairs:
        raise ValueError("sweep output must be non-empty")
    rows = [
        ComparisonRow(
            trad.n,
            *econ.cost_reductions(trad.n, costs),
            latency_reduction=1.0 - _ratio(sdn.latency_avg_ms, trad.latency_avg_ms),
            throughput_gain=_ratio(sdn.throughput_bps, trad.throughput_bps),
            pdr_delta=sdn.pdr - trad.pdr,
            overhead_ratio=_ratio(sdn.control_overhead_bits, trad.control_overhead_bits),
            capacity_ratio=_ratio(sdn.effective_capacity_bps, trad.effective_capacity_bps),
        )
        for trad, sdn in pairs
    ]
    headline = next((row for row in rows if row.n == reference_n), None)
    if headline is None:
        raise ValueError(f"reference_n={reference_n} is not a sweep point")
    return ComparisonReport(rows=tuple(rows), headline=headline)
