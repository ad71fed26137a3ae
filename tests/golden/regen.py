"""Rewrite the golden files from the CLI, byte for byte as the tests compare them.

Run it only for a declared output change, then review the diff:

    python tests/golden/regen.py

* ``metrics.csv`` and ``comparison.csv``: ``sdnmanet sweep`` on the calibrated
  defaults (an empty config), verbatim;
* ``charts.sha256``: the SHA-256 of each chart of that sweep, in
  ``sha256sum`` format;
* ``stages.sha256``: for each (n, seed) world of that sweep, the SHA-256 of
  each stage's output (``stage_digests``), so a moved output names the first
  stage and world that moved it;
* each name in ``STDOUT``: the stdout of that subcommand on
  ``scenarios/reference.cfg`` with ``--quiet``; ``capacity_n1000.csv``, for
  one, holds ``sdnmanet capacity scenarios/reference.cfg --n 1000 --quiet``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sdnmanet.cli import main  # noqa: E402
from sdnmanet.controller import simulate_queue  # noqa: E402
from sdnmanet.rng import derive_seed  # noqa: E402
from sdnmanet.simulator import ScenarioConfig, build_world  # noqa: E402

#: Golden file -> subcommand and flags whose stdout it holds, on the reference config.
STDOUT = {
    # The overhead column sums over every post-mobility edge length of a
    # 1000-node world, a size the golden sweep (n <= 200) never reaches.
    "capacity_n1000.csv": ["capacity", "--n", "1000"],
    "cost_n50.csv": ["cost", "--n", "50"],  # the cost table
    "resources.csv": ["resources"],  # the utilization curves over the sweep range
    # One run per mode at n = 170, the size of the acceptance suite's
    # controller-backlog check.
    "simulate_n170_traditional.csv": ["simulate", "--n", "170", "--mode", "traditional"],
    "simulate_n170_sdn.csv": ["simulate", "--n", "170", "--mode", "sdn"],
    # Routes at a mean degree near 50, five times the sweep's densest world:
    # where a search that stops early would first pick a different route.
    "simulate_n1000_traditional.csv": ["simulate", "--n", "1000", "--mode", "traditional"],
}


def stage_digests() -> list[str]:
    """``<sha256>  n=<n> seed_index=<k> <stage>`` for each stage of each world of the
    reference sweep, in sweep order: the edges, the final positions as ``float.hex``, the
    hop counts, the packet count and the SDN queue's final backlog, each hashed as the ``repr``
    of a list or a number."""
    cfg, lines = ScenarioConfig(), []
    for point_index, n in enumerate(cfg.sweep_points()):
        for seed_index in range(cfg.seeds_per_point):
            seed = derive_seed(cfg.seed, point_index, seed_index)  # the sweep's run seed
            world = build_world(cfg, n, seed)
            stages = {
                "edges": list(world.topology.edges),
                "positions": [(x.hex(), y.hex()) for x, y in world.topology.positions],
                "hops": list(world.hops),
                "packets": world.packets,
                "queue": simulate_queue(n, cfg.controller, derive_seed(seed, 4)).final_backlog,
            }
            lines += [f"{hashlib.sha256(repr(value).encode()).hexdigest()}  n={n} seed_index={seed_index} {stage}"
                      for stage, value in stages.items()]
    return lines


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp, "default.cfg"), Path(tmp, "out")
        scenario.write_text("# calibrated defaults\n", encoding="utf-8")
        if main(["sweep", str(scenario), "--out", str(out), "--quiet"]) != 0:
            raise SystemExit("sweep failed")
        for name in ("metrics.csv", "comparison.csv"):
            (GOLDEN / name).write_bytes((out / name).read_bytes())
        charts = sorted(path for path in out.iterdir() if path.suffix == ".svg")
        (GOLDEN / "charts.sha256").write_text(
            "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in charts),
            encoding="utf-8", newline="\n")
    for name, (command, *flags) in STDOUT.items():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main([command, str(ROOT / "scenarios" / "reference.cfg"), *flags, "--quiet"])
        if code != 0:
            raise SystemExit(f"{command} failed")
        (GOLDEN / name).write_bytes(captured.getvalue().encode("utf-8"))
    (GOLDEN / "stages.sha256").write_text("".join(f"{line}\n" for line in stage_digests()),
                                          encoding="utf-8", newline="\n")


if __name__ == "__main__":
    regenerate()
