"""Command-line surface tests: outputs, determinism, and exit codes."""

import math
import os
from pathlib import Path

import pytest

from sdnmanet.cli import main
from sdnmanet.controller import ControllerConfig, fluid_backlog
from sdnmanet.report import METRICS_COLUMNS, format_value, parse_metrics_csv

from golden import regen

REFERENCE_CFG = str(Path(__file__).parent.parent / "scenarios" / "reference.cfg")
GOLDEN = Path(__file__).parent / "golden"

SMALL_SCENARIO = "\n".join([
    "seeds_per_point = 2",
    "flow_samples = 8",
    "sweep.start = 20",
    "sweep.end = 80",
    "sweep.step = 30",
    "reference_n = 50",
])


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SMALL_SCENARIO + "\n", encoding="utf-8")
    return str(path)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# -------------------------------------------------------------------- sweep

def test_sweep_writes_reports_and_charts(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["sweep", small_cfg, "--out", out, "--quiet"]) == 0
    names = sorted(os.listdir(out))
    assert names == sorted([
        "metrics.csv", "comparison.csv", "latency.svg", "capacity.svg",
        "pdr.svg", "queue.svg", "utilization.svg",
    ])
    text = (tmp_path / "out" / "metrics.csv").read_bytes().decode("utf-8")
    lines = [line for line in text.split("\r\n") if line]
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 1 + 3 * 2  # header + 3 points x 2 modes
    assert lines[1].startswith("20,traditional,")
    assert lines[2].startswith("20,sdn,")


def test_sweep_outputs_are_byte_identical_across_runs(small_cfg, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["sweep", small_cfg, "--out", out_a, "--quiet"]) == 0
    assert main(["sweep", small_cfg, "--out", out_b, "--quiet"]) == 0
    for name in os.listdir(out_a):
        assert read_bytes(os.path.join(out_a, name)) == read_bytes(os.path.join(out_b, name)), name


def test_sweep_seed_override_changes_metrics(small_cfg, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["sweep", small_cfg, "--out", out_a, "--quiet"]) == 0
    assert main(["sweep", small_cfg, "--out", out_b, "--quiet", "--seed", "777"]) == 0
    assert read_bytes(os.path.join(out_a, "metrics.csv")) != read_bytes(os.path.join(out_b, "metrics.csv"))


def test_metrics_csv_round_trips_losslessly(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sweep", small_cfg, "--out", out, "--quiet"]) == 0
    text = (tmp_path / "out" / "metrics.csv").read_bytes().decode("utf-8")
    reports = parse_metrics_csv(text)
    assert len(reports) == 6
    # re-serializing the parsed values reproduces every cell exactly
    lines = [line for line in text.split("\r\n") if line][1:]
    for line, report in zip(lines, reports):
        cells = [format_value(getattr(report, column)) for column in METRICS_COLUMNS]
        assert ",".join(cells) == line


def test_comparison_csv_has_reference_row(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sweep", small_cfg, "--out", out, "--quiet"]) == 0
    text = (tmp_path / "out" / "comparison.csv").read_bytes().decode("utf-8")
    lines = [line for line in text.split("\r\n") if line]
    assert lines[0].startswith("n,capex_reduction,opex_reduction,")
    reference = next(line for line in lines if line.startswith("50,"))
    cells = reference.split(",")
    assert float(cells[1]) == pytest.approx(0.25)
    assert float(cells[2]) == pytest.approx(0.30)


def test_charts_are_self_contained_svg(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sweep", small_cfg, "--out", out, "--quiet"]) == 0
    for name in ("latency.svg", "capacity.svg", "pdr.svg", "queue.svg", "utilization.svg"):
        svg = (tmp_path / "out" / name).read_bytes().decode("utf-8")
        assert svg.startswith("<svg xmlns=")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")  # no external assets


# ----------------------------------------------------------------- simulate

def test_simulate_prints_one_csv_row(small_cfg, capsys):
    assert main(["simulate", small_cfg, "--n", "40", "--mode", "sdn", "--quiet"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.split("\r\n") if line]
    assert len(lines) == 2
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert lines[1].startswith("40,sdn,")


def test_simulate_queue_runs_for_the_configured_horizon(tmp_path, capsys):
    path = tmp_path / "short.cfg"
    path.write_text("sim_duration_s = 10\n", encoding="utf-8")
    assert main(["simulate", str(path), "--n", "170", "--mode", "sdn", "--quiet"]) == 0
    (report,) = parse_metrics_csv(capsys.readouterr().out)
    queue = ControllerConfig(sim_duration_s=10.0)
    fluid = fluid_backlog(170, queue)  # 33,900 requests after 10 s
    # Six standard deviations of the Poisson arrival count, plus the request in service.
    tolerance = 6.0 * math.sqrt((170 * queue.event_rate_lambda + queue.capacity_mu) * 10.0) + 3.0
    assert abs(report.queue_backlog - fluid) <= tolerance


def test_simulate_deterministic_per_seed(small_cfg, capsys):
    main(["simulate", small_cfg, "--n", "30", "--mode", "traditional", "--quiet"])
    first = capsys.readouterr().out
    main(["simulate", small_cfg, "--n", "30", "--mode", "traditional", "--quiet"])
    second = capsys.readouterr().out
    assert first == second


# --------------------------------------------------------------------- cost

def test_cost_table_reference_values(small_cfg, tmp_path, capsys):
    assert main(["cost", small_cfg, "--n", "50", "--quiet"]) == 0
    out = capsys.readouterr().out
    rows = dict(
        line.split(",", 1) for line in out.split("\r\n") if line and "," in line
    )
    assert rows["hardware_capex_reduction"] == "0.25"
    assert rows["opex_reduction"] == "0.3"
    assert rows["capex_sdn"] == "3750"
    assert rows["crossover_n"] == "14"
    # With no per-node saving SDN never breaks even, and the row says so.
    never = tmp_path / "never.cfg"
    never.write_text("costs.node_hw_sdn = 130\ncosts.node_maint_sdn = 30\n", encoding="utf-8")
    assert main(["cost", str(never), "--n", "50", "--quiet"]) == 0
    assert "crossover_n,never\r\n" in capsys.readouterr().out


@pytest.mark.parametrize("zeroed, row", [
    (["costs.node_hw_traditional"], "hardware_capex_reduction"),
    (["costs.node_maint_traditional", "costs.node_monitor_traditional",
      "costs.node_config_traditional"], "opex_reduction"),
], ids=["hardware", "opex"])
def test_cost_reduction_over_a_zero_traditional_cost_is_nan(zeroed, row, tmp_path, capsys):
    # A free traditional network leaves the reduction undefined, as the
    # sweep's comparison.csv has it, rather than a division error.
    path = tmp_path / "free.cfg"
    path.write_text("".join(f"{key} = 0\n" for key in zeroed), encoding="utf-8")
    assert main(["cost", str(path), "--n", "50", "--quiet"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.split("\r\n") if line)
    assert rows[row] == "nan"
    other = {"hardware_capex_reduction", "opex_reduction"} - {row}
    assert math.isfinite(float(rows[other.pop()]))


# ----------------------------------------------------------------- capacity

def test_capacity_breakdown_rows(small_cfg, capsys):
    assert main(["capacity", small_cfg, "--n", "60", "--quiet"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.split("\r\n") if line]
    assert lines[0] == "mode,node_sum_bps,controller_bps,overhead_bps,effective_bps,saturated"
    assert len(lines) == 3
    trad = lines[1].split(",")
    sdn = lines[2].split(",")
    assert trad[0] == "traditional" and sdn[0] == "sdn"
    assert float(sdn[4]) > float(trad[4])


@pytest.mark.parametrize("golden", list(regen.STDOUT))
def test_stdout_matches_golden(golden, capsys):
    command, *flags = regen.STDOUT[golden]
    assert main([command, REFERENCE_CFG, *flags, "--quiet"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


# ---------------------------------------------------------------- resources

def test_resources_curve_rows(small_cfg, capsys):
    assert main(["resources", small_cfg, "--quiet"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.split("\r\n") if line]
    assert lines[0] == "n,cpu_pct,mem_pct,net_pct,storage_pct"
    assert len(lines) == 4  # sweep points 20, 50, 80
    first = lines[1].split(",")
    assert first[0] == "20"
    assert float(first[1]) >= float(first[2]) >= float(first[3]) >= float(first[4])


# --------------------------------------------------------------- exit codes

def test_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("topology.link_probability = 1.5\n", encoding="utf-8")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "topology.link_probability" in err


def test_missing_config_exits_one(tmp_path):
    assert main(["cost", str(tmp_path / "nope.cfg"), "--n", "50", "--quiet"]) == 1


def test_model_error_exits_two(small_cfg, capsys):
    assert main(["simulate", small_cfg, "--n", "0", "--mode", "sdn", "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unreachable_reference_exits_two(tmp_path, capsys):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(SMALL_SCENARIO.replace("reference_n = 50", "reference_n = 77") + "\n",
                   encoding="utf-8")
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
