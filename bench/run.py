"""Sweep benchmark: runs ``sdnmanet sweep`` end to end and layer by layer.

Each operation is one run of the real CLI, ``sdnmanet sweep <cfg> --seed
<seed> --out <dir>``, as its own child process, one at a time. A run fails
on a nonzero exit, a missing output, a broken output invariant
(``sweep_checks``), or output bytes that differ from the first run of the
same invocation.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``wall_s``: seconds from spawning a sweep child to its exit (median);
* ``setup_s``: seconds for a child that imports ``sdnmanet.cli``, parses the
  workload config and exits (median of several launches per run);
* ``peak_rss_mb``: peak resident set of one sweep child, from its own
  rusage (median).

``--trace 1`` pairs each untraced sweep with a traced one
(``sweep_trace.py``, in-process through ``sdnmanet.cli.main``) and reports
the per-layer metrics: calls and self time of every public function, work
counters taken at the layer boundaries (which must repeat exactly), and the
tracing overhead.

Usage, from any directory::

    python3 bench/run.py --workload reference_sweep --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --workload all     # every workload, tracing off then on

Human-readable lines (``#``-prefixed: machine, output hashes, every metric)
come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 when
every run passed, 1 when one failed, 2 when the program cannot be run.
Scratch output goes to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import sweep_trace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS_DIR = BENCH / "workloads"

#: Workload name -> why it is in the benchmark. Configs: workloads/<name>.cfg.
WORKLOADS = {
    "reference_sweep": "the paper's headline sweep (calibrated defaults): mobility 51%, "
                       "controller queue 31%, shortest paths 12% of the run",
    "large_n": "scaling row n=400..1000 at one seed: edge-bound mobility and n^2 graph "
               "generation dominate, peak RSS is highest, few flows reuse a source",
    "flow_heavy": "1000 flows on sparse graphs: shortest paths take 95%, mobility and the "
                  "queue under 2%, 87% of flows reuse a source, 20% are unroutable",
}

#: The calibrated default seed of every workload config.
DEFAULT_SEED = 42
DEFAULT_SECONDS = 40
#: Setup-time launches before each sweep of a --trace 0 run.
SETUPS_PER_SWEEP = 3
#: Every run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Public functions the reference sweep calls, reported on every workload.
TRACED_FUNCTIONS = (
    "config.parse_config",
    "simulator.sweep", "simulator.run_scenario", "simulator.evolve_topology",
    "simulator.rediscovery_rate", "simulator.pdr_model", "simulator.throughput_model",
    "simulator.compare",
    "topology.generate_erdos_renyi", "topology.step_mobility", "topology.shortest_path",
    "topology.distance",
    "routing.latency_manet", "routing.latency_sdn", "routing.update_time",
    "routing.sdn_update_time", "routing.control_overhead",
    "controller.simulate_queue", "controller.max_latency_model",
    "capacity.pairwise_packet_count", "capacity.overhead_bits", "capacity.capacity_sdn",
    "capacity.capacity_traditional",
    "econ.capex_sdn", "econ.opex_sdn", "econ.opex_traditional",
    "resources.utilization",
    "report.render_metrics_csv", "report.render_comparison_csv", "report.metrics_row",
    "report.format_value",
    "charts.line_chart",
)


def _per_layer_units() -> dict[str, str]:
    """Every per-layer metric printed by ``--trace 1``, with its unit."""
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in sweep_trace.LAYERS})
    units.update({
        "simulator.run_scenario.p50_ms": "ms",
        "simulator.run_scenario.p90_ms": "ms",
        "simulator.world_builds_per_world": "ratio",
        "topology.generate_erdos_renyi.pairs": "count",
        "topology.generate_erdos_renyi.edges": "count",
        "topology.step_mobility.node_steps": "count",
        "topology.step_mobility.edge_weights": "count",
        "topology.shortest_path.no_route": "count",
        "topology.shortest_path.routable_ratio": "ratio",
        "topology.shortest_path.repeat_source_ratio": "ratio",
        "controller.simulate_queue.arrivals": "count",
        "controller.simulate_queue.arrivals_per_s": "1/s",
        "capacity.pairwise_packet_count.edges": "count",
        "report.bytes": "bytes",
        "charts.bytes": "bytes",
        "traced.wall_s": "s",
        "tracing_overhead_s": "s",
        "cpu_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()
#: Per-layer metrics that count work: equal on every run of one invocation.
COUNTS = tuple(name for name, unit in PER_LAYER.items()
               if unit in ("count", "bytes") or name.endswith("_ratio")
               or name == "simulator.world_builds_per_world")


@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


@dataclass
class Tally:
    """Runs attempted and failed in one invocation.

    The first sound run sets the output digests that every later run of the
    invocation must reproduce byte for byte.
    """

    attempted: int = 0
    failed: int = 0
    reference: dict[str, str] | None = None

    def judge(self, label: str, out: Path, cfg, code: int) -> bool:
        """Count one sweep run; True when its outputs are sound."""
        from sweep_checks import OUTPUT_FILES, check_outputs, digests

        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else check_outputs(out, cfg)
        found = digests(out)
        if self.reference is None:
            if not problems and len(found) == len(OUTPUT_FILES):
                self.reference = found
                for name, digest in found.items():
                    print(f"# sha256 {name} {digest}")
        else:
            changed = [n for n in OUTPUT_FILES if found.get(n) != self.reference[n]]
            if changed and code == 0:
                problems.append(f"output bytes differ from the first run: {changed}")
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
        return not problems

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"# FAILED: {message}", file=sys.stderr)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(args: list[str], stderr_path: Path, timeout_s: float) -> Child:
    """Run ``python3 args`` to completion; time it and read its own rusage.

    ``os.wait4`` gives the rusage of this one child, unlike
    ``RUSAGE_CHILDREN``, which is the maximum over every child so far.
    """
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(max(timeout_s, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


class Bench:
    """One benchmark invocation on one workload."""

    def __init__(self, cfg_path: Path, seed: int, seconds: float, work: Path) -> None:
        from sdnmanet.config import parse_config

        self.cfg_path = cfg_path
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.cfg = parse_config(str(cfg_path))
        self.cfg.seed = seed
        self.tally = Tally()
        self.started = time.perf_counter()
        self.runs = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def another(self, last_round_s: float) -> bool:
        """Whether one more round like the last one still ends in time."""
        return self.elapsed() + last_round_s <= self.seconds

    def setup(self) -> float:
        """Seconds to start Python, import the CLI and parse the config."""
        child = spawn(["-c", "import sys, sdnmanet.cli, sdnmanet.config; "
                             "sdnmanet.config.parse_config(sys.argv[1])", str(self.cfg_path)],
                      self.work / "setup.err", self.remaining())
        if child.code != 0:
            raise SystemExit(f"setup child failed ({child.code}): {child.stderr}")
        return child.wall_s

    def sweep(self, traced: bool) -> tuple[Child, Path | None]:
        """One sweep run, checked; returns the child and (if traced) its summary."""
        self.runs += 1
        out = self.work / f"run-{self.runs}"
        cli = ["sweep", str(self.cfg_path), "--seed", str(self.seed), "--out", str(out)]
        summary = self.work / f"summary-{self.runs}.json"
        if traced:
            args = [str(BENCH / "sweep_trace.py"), str(self.work / "spans.jsonl"),
                    str(summary), *cli]
        else:
            args = ["-m", "sdnmanet.cli", *cli]
        child = spawn(args, self.work / f"run-{self.runs}.err", self.remaining())
        label = f"{'traced ' if traced else ''}run {self.runs}"
        sound = self.tally.judge(label, out, self.cfg, child.code)
        if not sound and child.stderr:
            print(child.stderr, file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return child, summary if traced and sound else None


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def measure_end_to_end(bench: Bench) -> dict[str, tuple[float, str]]:
    bench.setup()  # untimed: compiles bytecode and warms the file cache
    setups: list[float] = []
    children: list[Child] = []
    last_round_s = 0.0
    while not children or bench.another(last_round_s):
        round_started = bench.elapsed()
        setups += [bench.setup() for _ in range(SETUPS_PER_SWEEP)]
        child, _ = bench.sweep(traced=False)
        children.append(child)
        last_round_s = bench.elapsed() - round_started
    walls = [c.wall_s for c in children]
    rss = [c.peak_rss_mb for c in children]
    print(f"# wall_s: {_spread(walls)}")
    print(f"# setup_s: {_spread(setups)}")
    print(f"# peak_rss_mb: {_spread(rss)}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def measure_per_layer(bench: Bench) -> dict[str, tuple[float, str]]:
    bench.setup()
    plain: list[Child] = []
    traced: list[Child] = []
    samples: list[dict[str, tuple[float, str]]] = []
    last_round_s = 0.0
    while not traced or bench.another(last_round_s):
        round_started = bench.elapsed()
        plain.append(bench.sweep(traced=False)[0])
        child, summary_path = bench.sweep(traced=True)
        traced.append(child)
        if summary_path is not None:
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            samples.append(sweep_trace.layer_metrics(summary, TRACED_FUNCTIONS))
        last_round_s = bench.elapsed() - round_started
    if not samples:
        return {}
    unsteady = [name for name in COUNTS if len({s[name][0] for s in samples}) > 1]
    if unsteady:
        bench.tally.fail(f"work counts differ between traced runs: {unsteady}")
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    traced_wall = statistics.median(c.wall_s for c in traced)
    plain_wall = statistics.median(c.wall_s for c in plain)
    metrics["traced.wall_s"] = (traced_wall, "s")
    metrics["tracing_overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["cpu_s"] = (statistics.median(c.cpu_s for c in plain), "s")
    print(f"# untraced wall_s: {_spread([c.wall_s for c in plain])}")
    print(f"# traced wall_s: {_spread([c.wall_s for c in traced])}")
    ranking = sorted((name for name in metrics if name.count(".") == 2
                      and name.endswith(".self_s")), key=lambda n: -metrics[n][0])
    print("# top self time: " + ", ".join(f"{n[:-7]} {metrics[n][0]:.3f} s" for n in ranking[:5]))
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    """The checked-out commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sdnmanet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(cfg_path: Path, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark invocation; returns the result object printed last."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{cfg_path.stem}-", dir=WORK))
    record = {
        "workload": cfg_path.stem, "config": cfg_path.name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "commit": _commit(), "src_sha256": _source_digest(),
    }
    print("# run: " + json.dumps(record))
    bench = Bench(cfg_path, seed, seconds, work)
    try:
        units = PER_LAYER if trace else END_TO_END
        measured = measure_per_layer(bench) if trace else measure_end_to_end(bench)
        for name, (value, unit) in measured.items():
            note = "" if name in units else " (not in BENCHMARK.json)"
            print(f"# {name} {value:.6g} {unit}{note}")
        if trace and measured:
            shutil.copyfile(work / "spans.jsonl", WORK / f"spans-{record['workload']}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = bench.tally
    metrics = {name: {"value": measured[name][0], "unit": unit}
               for name, unit in units.items() if name in measured}
    correct = tally.failed == 0 and len(metrics) == len(units)
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdnmanet" / "cli.py").is_file():
        print(f"error: no sdnmanet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = run_workload(WORKLOADS_DIR / f"{args.workload}.cfg", args.seed,
                              args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(WORKLOADS_DIR / f"{workload}.cfg", args.seed,
                                  args.seconds, trace)
            print(f"# {workload} trace={int(trace)}: " + json.dumps(result))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{workload}.{name}": entry
                                        for name, entry in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
