"""Tests of the sweep benchmark itself, on tiny versions of its workloads.

Run with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import sweep_trace

sys.path.insert(0, str(run.SRC))

from sdnmanet.config import parse_config  # noqa: E402

# Small enough that a tiny run takes well under a second, large enough that
# every layer runs and every flow_heavy run still has unroutable flows.
TINY = {
    "seeds_per_point": "2",
    "sweep.start": "20",
    "sweep.end": "50",
    "sweep.step": "30",
    "reference_n": "20",
}


def _tiny_config(workload: str, directory: Path) -> Path:
    """The workload config with its size keys replaced by TINY."""
    lines = (run.WORKLOADS_DIR / f"{workload}.cfg").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if line.split("=", 1)[0].strip() not in TINY]
    kept += [f"{key} = {value}" for key, value in TINY.items()]
    if workload == "flow_heavy":
        kept = [line for line in kept if not line.startswith("flow_samples")]
        kept.append("flow_samples = 100")
    path = directory / f"tiny_{workload}.cfg"
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return path


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in run.WORKLOADS:
        parse_config(str(run.WORKLOADS_DIR / f"{workload}.cfg"))


def test_reference_workload_is_the_reference_scenario():
    ours = parse_config(str(run.WORKLOADS_DIR / "reference_sweep.cfg"))
    assert ours == parse_config(str(run.ROOT / "scenarios" / "reference.cfg"))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_prints_every_metric_and_counts_match_closed_forms(workload, tmp_path,
                                                                    monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    cfg_path = _tiny_config(workload, tmp_path)
    plain = run.run_workload(cfg_path, seed=7, seconds=0, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run.run_workload(cfg_path, seed=7, seconds=3, trace=True)
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] >= 2
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.PER_LAYER

    cfg = parse_config(str(cfg_path))
    points, seeds = cfg.sweep_points(), cfg.seeds_per_point
    steps = round(cfg.sim_duration_s / cfg.topology.mobility_step_s)
    runs = 2 * seeds * len(points)
    edges = metrics["topology.generate_erdos_renyi.edges"]
    assert metrics["topology.generate_erdos_renyi.pairs"] == sum(
        2 * seeds * n * (n - 1) // 2 for n in points)
    assert metrics["topology.step_mobility.node_steps"] == 2 * seeds * sum(n * steps for n in points)
    assert metrics["topology.step_mobility.edge_weights"] == steps * edges
    assert metrics["capacity.pairwise_packet_count.edges"] == edges
    assert metrics["simulator.evolve_topology.calls"] == runs
    assert metrics["simulator.world_builds_per_world"] == 2.0
    assert metrics["topology.shortest_path.calls"] == runs * cfg.flow_samples
    assert metrics["controller.simulate_queue.calls"] == seeds * len(points)
    assert metrics["controller.simulate_queue.arrivals"] > 0
    assert 0.0 < metrics["topology.shortest_path.routable_ratio"] <= 1.0
    assert metrics["report.bytes"] > 0 and metrics["charts.bytes"] > 0


def test_truncated_or_changed_output_counts_as_a_failed_run(tmp_path):
    cfg_path = _tiny_config("reference_sweep", tmp_path)
    cfg = parse_config(str(cfg_path))
    out = tmp_path / "out"
    child = run.spawn(["-m", "sdnmanet.cli", "sweep", str(cfg_path), "--out", str(out)],
                      tmp_path / "sweep.err", 60.0)
    assert child.code == 0
    pristine = {p.name: p.read_bytes() for p in out.iterdir()}

    tally = run.Tally()
    assert tally.judge("first", out, cfg, child.code)
    assert tally.judge("same bytes", out, cfg, child.code)

    (out / "metrics.csv").write_bytes(pristine["metrics.csv"][:-7])
    assert not tally.judge("truncated", out, cfg, child.code)
    assert not run.Tally().judge("truncated, no reference", out, cfg, child.code)
    (out / "metrics.csv").write_bytes(pristine["metrics.csv"][:-2])
    assert not run.Tally().judge("lost final CRLF", out, cfg, child.code)

    (out / "metrics.csv").write_bytes(pristine["metrics.csv"])
    svg = pristine["pdr.svg"]
    digit = svg.index(b'points="') + len(b'points="')
    changed = svg[:digit] + (b"1" if svg[digit:digit + 1] != b"1" else b"2") + svg[digit + 1:]
    (out / "pdr.svg").write_bytes(changed)
    assert run.Tally().judge("changed byte, still valid", out, cfg, child.code)
    assert not tally.judge("changed byte", out, cfg, child.code)

    (out / "pdr.svg").unlink()
    assert not tally.judge("missing file", out, cfg, child.code)
    assert not tally.judge("nonzero exit", out, cfg, 2)
    assert (tally.attempted, tally.failed) == (6, 4)


def test_tracer_wraps_from_imports_and_leaves_rng_alone():
    import sdnmanet

    for info in pkgutil.iter_modules(sdnmanet.__path__):
        importlib.import_module(f"sdnmanet.{info.name}")
    modules = [m for k, m in sys.modules.items() if k == "sdnmanet" or k.startswith("sdnmanet.")]
    saved = {module: dict(vars(module)) for module in modules}
    try:
        assert sweep_trace.Tracer().install() > 20
        assert sdnmanet.simulator.step_mobility is sdnmanet.topology.step_mobility
        assert sdnmanet.capacity.distance is not saved[sdnmanet.capacity]["distance"]
        assert sdnmanet.rng.derive_seed is saved[sdnmanet.rng]["derive_seed"]
    finally:
        for module, namespace in saved.items():
            vars(module).update(namespace)
    assert sdnmanet.topology.step_mobility is saved[sdnmanet.topology]["step_mobility"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "large_n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
