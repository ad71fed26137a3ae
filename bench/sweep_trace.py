"""Traced in-process run of the sdnmanet CLI.

Wraps every public function of every ``sdnmanet`` module (except ``rng``,
whose millions of calls per run would make the trace measure the wrapper)
on its defining module and wherever another ``sdnmanet`` module bound it by
from-import, then calls ``sdnmanet.cli.main`` once. A function that a later
change adds is timed without a change here.

Each call becomes a span ``[name, start, end, parent, run]``; spans under one
``simulator.run_scenario`` share its ``(n, seed, mode)`` run id. Spans stay
in memory until the CLI returns, then go to a JSON-lines file, and a summary
(per-function calls and self time, work counters, run_scenario durations)
goes to a JSON file. Self time is a span's duration minus its child spans.

Usage::

    python3 bench/sweep_trace.py SPANS.jsonl SUMMARY.json sweep CFG --seed S --out DIR

The arguments after the two file names go to ``sdnmanet.cli.main``
unchanged. ``src`` must be importable (the benchmark sets ``PYTHONPATH``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import statistics
import sys
import time
from collections import Counter

#: Modules left unwrapped: helpers below every layer.
UNWRAPPED = ("rng",)

#: The layers: one per module of the package, ``cli`` and ``rng`` excluded.
LAYERS = (
    "config", "simulator", "topology", "routing", "controller",
    "capacity", "econ", "resources", "report", "charts",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder plus work counters taken at the wrapped boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run: tuple | None = None
        self.counters: Counter = Counter()
        self.worlds: set[tuple[int, int]] = set()
        self.sources: set[tuple] = set()
        self._hooks = {
            "simulator.evolve_topology": self._on_evolve_topology,
            "topology.generate_erdos_renyi": self._on_generate,
            "topology.step_mobility": self._on_step_mobility,
            "topology.shortest_path": self._on_shortest_path,
            "controller.simulate_queue": self._on_simulate_queue,
            "capacity.pairwise_packet_count": self._on_pairwise_packet_count,
        }

    # -- installation ---------------------------------------------------
    def install(self) -> int:
        """Wrap every public sdnmanet function in place; returns the count."""
        import sdnmanet

        for info in pkgutil.iter_modules(sdnmanet.__path__):
            importlib.import_module(f"sdnmanet.{info.name}")
        package = [m for k, m in sorted(sys.modules.items())
                   if k == "sdnmanet" or k.startswith("sdnmanet.")]
        skipped = {f"sdnmanet.{m}" for m in UNWRAPPED}
        wrappers: dict[object, object] = {}
        for module in package:
            for attr, obj in list(vars(module).items()):
                if (
                    not inspect.isfunction(obj)
                    or attr.startswith("_")
                    or obj.__name__.startswith("_")
                    or not obj.__module__.startswith("sdnmanet")
                    or obj.__module__ in skipped
                ):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(name, obj)
                setattr(module, attr, wrappers[obj])
        return len(wrappers)

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        opens_run = name == "simulator.run_scenario"
        layer = _layer(name)
        counts_bytes = layer in ("report", "charts")
        signature = inspect.signature(fn) if hook or opens_run else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(index)
            bound = signature.bind(*args, **kwargs).arguments if signature else None
            outer_run = self.run
            if opens_run:
                self.run = span[4] = (bound["n"], bound["seed"], bound["mode"])
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                self.run = outer_run
                if hook:
                    hook(bound, result, error)
                if counts_bytes and isinstance(result, str):
                    parent = spans[span[3]][0] if span[3] >= 0 else ""
                    if _layer(parent) != layer:
                        self.counters[f"{layer}.bytes"] += len(result.encode("utf-8"))

        return traced

    # -- counters taken from arguments and results ------------------------
    def _on_evolve_topology(self, bound, result, error) -> None:
        self.worlds.add((bound["n"], bound["seed"]))

    def _on_generate(self, bound, result, error) -> None:
        n = bound["n"]
        self.counters["topology.generate_erdos_renyi.pairs"] += n * (n - 1) // 2
        if result is not None:
            self.counters["topology.generate_erdos_renyi.edges"] += len(result.edges)

    def _on_step_mobility(self, bound, result, error) -> None:
        self.counters["topology.step_mobility.node_steps"] += len(bound["t"].nodes)
        if result is not None:
            self.counters["topology.step_mobility.edge_weights"] += len(result.edge_weight)

    def _on_shortest_path(self, bound, result, error) -> None:
        if error is not None:
            self.counters["topology.shortest_path.no_route"] += 1
        key = (self.run, bound["src"])
        if key in self.sources:
            self.counters["topology.shortest_path.repeat_source"] += 1
        self.sources.add(key)

    def _on_simulate_queue(self, bound, result, error) -> None:
        if result is not None:
            arrivals = result.final_backlog + len(result.served_latencies_ms)
            self.counters["controller.simulate_queue.arrivals"] += arrivals

    def _on_pairwise_packet_count(self, bound, result, error) -> None:
        self.counters["capacity.pairwise_packet_count.edges"] += len(bound["t"].edges)

    # -- output -----------------------------------------------------------
    def summary(self) -> dict:
        """Per-function calls and self time, counters and run durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict[str, dict[str, float]] = {}
        run_ms: list[float] = []
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - children
            if name == "simulator.run_scenario":
                run_ms.append((end - start) * 1000.0)
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "distinct_worlds": len(self.worlds),
            "run_scenario_ms": run_ms,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(json.dumps([name, start, end, parent, run]) + "\n")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, functions: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from one trace summary.

    ``functions`` are reported even when a run never calls them; every other
    function the trace saw is added too.
    """
    seen = summary["functions"]
    counters = summary["counters"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in sorted(set(functions) | set(seen)):
        entry = seen.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    for layer in LAYERS:
        total = sum(e["self_s"] for n, e in seen.items() if _layer(n) == layer)
        metrics[f"{layer}.self_s"] = (total, "s")

    def calls(name: str) -> int:
        return seen.get(name, {"calls": 0})["calls"]

    def count(name: str) -> int:
        return counters.get(name, 0)

    run_ms = summary["run_scenario_ms"]
    metrics["simulator.run_scenario.p50_ms"] = (statistics.median(run_ms) if run_ms else 0.0, "ms")
    metrics["simulator.run_scenario.p90_ms"] = (_percentile(run_ms, 0.9), "ms")
    metrics["simulator.world_builds_per_world"] = (
        _ratio(calls("simulator.evolve_topology"), summary["distinct_worlds"]), "ratio")
    for name in (
        "topology.generate_erdos_renyi.pairs", "topology.generate_erdos_renyi.edges",
        "topology.step_mobility.node_steps", "topology.step_mobility.edge_weights",
        "topology.shortest_path.no_route", "controller.simulate_queue.arrivals",
        "capacity.pairwise_packet_count.edges",
    ):
        metrics[name] = (count(name), "count")
    flows = calls("topology.shortest_path")
    metrics["topology.shortest_path.routable_ratio"] = (
        _ratio(flows - count("topology.shortest_path.no_route"), flows), "ratio")
    metrics["topology.shortest_path.repeat_source_ratio"] = (
        _ratio(count("topology.shortest_path.repeat_source"), flows), "ratio")
    queue_s = seen.get("controller.simulate_queue", {"self_s": 0.0})["self_s"]
    metrics["controller.simulate_queue.arrivals_per_s"] = (
        _ratio(count("controller.simulate_queue.arrivals"), queue_s), "1/s")
    metrics["report.bytes"] = (count("report.bytes"), "bytes")
    metrics["charts.bytes"] = (count("charts.bytes"), "bytes")
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, summary_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    from sdnmanet import cli

    code = cli.main(cli_args)
    tracer.write_spans(spans_path)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
