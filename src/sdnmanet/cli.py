"""Command-line front end.

Subcommands::

    sweep <config> --out <dir>                 full sweep: CSV reports + SVG charts
    simulate <config> --n <int> --mode <mode>  one scenario as a CSV row on stdout
    cost <config> --n <int>                    CAPEX/OPEX/crossover table on stdout
    capacity <config> --n <int>                per-mode capacity breakdown on stdout
    resources <config>                         utilization curves over the sweep range

``--seed`` overrides the config seed, ``--quiet`` silences progress notes.
Exit codes: 0 success, 1 config error, 2 runtime/model error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import econ
from . import resources as res
from .charts import line_chart
from .config import ConfigError, parse_config
from .report import (
    render_comparison_csv,
    render_csv,
    render_metrics_csv,
    render_single_metrics_csv,
)
from .simulator import (
    MODES,
    RESOURCE_COLUMNS,
    MetricsReport,
    ScenarioConfig,
    build_world,
    capacity_breakdown,
    compare,
    run_scenario,
    sweep,
)
from .topology import NoRouteError


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _note(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


#: The per-mode charts of a sweep: file, title, y label, ``MetricsReport`` column.
_MODE_CHARTS = (
    ("latency.svg", "Average latency vs network size", "latency (ms)", "latency_avg_ms"),
    ("capacity.svg", "Effective capacity vs network size", "capacity (bits/s)",
     "effective_capacity_bps"),
    ("pdr.svg", "Packet delivery ratio vs network size", "PDR", "pdr"),
    ("queue.svg", "Controller queue backlog vs network size", "pending requests", "queue_backlog"),
)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    _note(args, f"running sweep over n={cfg.sweep_points()} with {cfg.seeds_per_point} seeds per point")
    pairs = sweep(cfg)
    comparison = compare(pairs, cfg.costs, cfg.reference_n)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "metrics.csv"), render_metrics_csv(pairs))
    _write_text(os.path.join(args.out, "comparison.csv"), render_comparison_csv(comparison))

    by_mode = dict(zip(MODES, zip(*pairs)))

    def series(column: str, reports: tuple[MetricsReport, ...]) -> list[tuple[float, float]]:
        return [(float(r.n), getattr(r, column)) for r in reports]

    charts = {
        name: line_chart(title, "nodes", y_label,
                         [(mode, series(column, reports)) for mode, reports in by_mode.items()])
        for name, title, y_label, column in _MODE_CHARTS
    }
    charts["utilization.svg"] = line_chart(
        "Controller resource utilization (SDN)", "nodes", "utilization (%)",
        [(kind, series(column, by_mode["sdn"]))
         for kind, column in zip(res.RESOURCE_KINDS, RESOURCE_COLUMNS)],
    )
    for name, svg in charts.items():
        _write_text(os.path.join(args.out, name), svg)
    _note(args, f"wrote metrics.csv, comparison.csv, and {len(charts)} charts to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report = run_scenario(cfg, args.n, args.mode, cfg.seed)
    sys.stdout.write(render_single_metrics_csv(report))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    n, costs = args.n, cfg.costs
    hardware_reduction, opex_reduction = econ.cost_reductions(n, costs)
    crossover = econ.crossover_n(costs)
    rows: list[list[object]] = [
        ["capex_traditional", econ.capex_traditional(n, costs)],
        ["capex_hardware_traditional", n * costs.node_hw_traditional],
        ["capex_sdn", econ.capex_sdn(n, costs)],
        ["opex_traditional", econ.opex_traditional(n, costs)],
        ["opex_sdn", econ.opex_sdn(n, costs)],
        ["hardware_capex_reduction", hardware_reduction],
        ["opex_reduction", opex_reduction],
        ["crossover_n", crossover if crossover is not None else "never"],
    ]
    sys.stdout.write(render_csv(["metric", "value"], rows))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    world = build_world(cfg, args.n, cfg.seed)
    rows = []
    for mode in MODES:
        b = capacity_breakdown(cfg, mode, world)
        rows.append([mode, b.node_sum, b.controller, b.overhead, b.effective, b.saturated])
    sys.stdout.write(render_csv(
        ["mode", "node_sum_bps", "controller_bps", "overhead_bps", "effective_bps", "saturated"],
        rows,
    ))
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    rows = [
        [n] + [res.utilization(kind, n, cfg.resources) for kind in res.RESOURCE_KINDS]
        for n in cfg.sweep_points()
    ]
    sys.stdout.write(render_csv(["n", *RESOURCE_COLUMNS], rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="scenario config file (key = value lines)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="sdnmanet",
        description="Compare traditional and SDN-enabled MANET/IoT networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run the full sweep and write reports")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[common], help="one scenario as a CSV row")
    p_sim.add_argument("--n", type=int, required=True, help="node count")
    p_sim.add_argument("--mode", choices=MODES, required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cost = sub.add_parser("cost", parents=[common], help="CAPEX/OPEX/crossover table")
    p_cost.add_argument("--n", type=int, required=True, help="node count")
    p_cost.set_defaults(func=_cmd_cost)

    p_cap = sub.add_parser("capacity", parents=[common], help="capacity breakdown per mode")
    p_cap.add_argument("--n", type=int, required=True, help="node count")
    p_cap.set_defaults(func=_cmd_capacity)

    p_res = sub.add_parser("resources", parents=[common], help="utilization curves over the sweep")
    p_res.set_defaults(func=_cmd_resources)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NoRouteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
