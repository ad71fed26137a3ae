"""Checks on the seven files of one ``sdnmanet sweep --out`` directory.

Every check holds for any seed of any workload config: row layout and
finiteness of ``metrics.csv``, the bounds each mode guarantees, the SDN
columns that closed forms give exactly (to the 6 significant digits the CSV
keeps), the queue backlog within a Poisson tolerance of the fluid bound,
the capex/opex columns of ``comparison.csv``, and well-formed SVG.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import xml.etree.ElementTree as ET
from pathlib import Path

from sdnmanet import controller as ctl
from sdnmanet import econ
from sdnmanet import report
from sdnmanet import resources as res
from sdnmanet.simulator import MODES, ScenarioConfig

SVG_FILES = ("latency.svg", "capacity.svg", "pdr.svg", "queue.svg", "utilization.svg")
OUTPUT_FILES = ("metrics.csv", "comparison.csv") + SVG_FILES

# Standard deviations of Poisson arrival noise allowed between the mean
# simulated backlog and the fluid bound; a false alarm is below 1e-8.
_BACKLOG_SIGMAS = 6.0
# The simulated queue counts the request in service and starts serving at
# the first arrival, so it sits a few requests above the fluid bound.
_BACKLOG_SLACK = 3.0


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file present in ``out_dir``."""
    found = {}
    for name in OUTPUT_FILES:
        path = out_dir / name
        if path.is_file():
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def _same6(cell: float, exact: float) -> bool:
    """True when ``cell`` is ``exact`` rounded to 6 significant digits."""
    return abs(cell - exact) <= 5.000001e-6 * abs(exact)


def _raw_rows(text: str, name: str, header: tuple[str, ...]) -> tuple[list[list[str]], list[str]]:
    """CSV rows below the header, or problems with the framing."""
    problems = []
    if not text.endswith("\r\n"):
        problems.append(f"{name} does not end with CRLF (truncated?)")
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if not rows or tuple(rows[0]) != header:
        return [], problems + [f"{name} header is {rows[0] if rows else None}"]
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            problems.append(f"{name} line {i} has {len(row)} fields, expected {len(header)}")
    return rows[1:], problems


def check_metrics(text: str, cfg: ScenarioConfig) -> list[str]:
    rows, problems = _raw_rows(text, "metrics.csv", report.METRICS_COLUMNS)
    if problems:
        return problems
    if any(row[-1] not in ("true", "false") for row in rows):
        problems.append("metrics.csv saturated column is not true/false")
    try:
        reports = report.parse_metrics_csv(text)
    except (ValueError, KeyError) as exc:
        return problems + [f"metrics.csv does not parse: {exc}"]
    points = cfg.sweep_points()
    layout = [(n, mode) for n in points for mode in MODES]
    if [(r.n, r.mode) for r in reports] != layout:
        return problems + [f"metrics.csv rows are not {len(points)} x (traditional, sdn)"]
    floats = [f.name for f in dataclasses.fields(reports[0]) if f.type in ("float", float)]
    queue = cfg.controller
    for r in reports:
        where = f"metrics.csv n={r.n} {r.mode}"
        bad = [name for name in floats if not math.isfinite(getattr(r, name))]
        if bad:
            problems.append(f"{where}: non-finite {bad}")
            continue
        if not 0.0 <= r.pdr <= 1.0:
            problems.append(f"{where}: pdr {r.pdr} outside [0, 1]")
        resources = (r.cpu_pct, r.mem_pct, r.net_pct, r.storage_pct)
        if r.mode == "traditional":
            if r.latency_avg_ms > r.latency_max_ms:
                problems.append(f"{where}: latency_avg_ms exceeds latency_max_ms")
            if r.queue_backlog != 0.0 or any(resources):
                problems.append(f"{where}: nonzero backlog or resource column")
            continue
        if not _same6(r.latency_max_ms, ctl.max_latency_model(r.n, queue)):
            problems.append(f"{where}: latency_max_ms differs from max_latency_model")
        for kind, value in zip(res.RESOURCE_KINDS, resources):
            if not _same6(value, res.utilization(kind, r.n, cfg.resources)):
                problems.append(f"{where}: {kind} column differs from utilization")
        fluid = ctl.fluid_backlog(r.n, queue)
        spread = math.sqrt((r.n * queue.event_rate_lambda + queue.capacity_mu)
                           * queue.sim_duration_s / cfg.seeds_per_point)
        tolerance = _BACKLOG_SIGMAS * spread + _BACKLOG_SLACK + 5e-6 * fluid
        if abs(r.queue_backlog - fluid) > tolerance:
            problems.append(f"{where}: queue_backlog {r.queue_backlog} is not within "
                            f"{tolerance:.1f} of the fluid bound {fluid}")
    return problems


def check_comparison(text: str, cfg: ScenarioConfig) -> list[str]:
    rows, problems = _raw_rows(text, "comparison.csv", report.COMPARISON_COLUMNS)
    if problems:
        return problems
    points = cfg.sweep_points()
    try:
        table = [dict(zip(report.COMPARISON_COLUMNS, (int(row[0]), *map(float, row[1:]))))
                 for row in rows]
    except ValueError as exc:
        return [f"comparison.csv does not parse: {exc}"]
    if [row["n"] for row in table] != points:
        return [f"comparison.csv rows are not n={points}"]
    if cfg.reference_n not in points:
        problems.append(f"comparison.csv has no headline row n={cfg.reference_n}")
    costs = cfg.costs
    for row in table:
        n = row["n"]
        capex = 1.0 - econ.capex_sdn(n, costs) / (n * costs.node_hw_traditional)
        opex = 1.0 - econ.opex_sdn(n, costs) / econ.opex_traditional(n, costs)
        if not (_same6(row["capex_reduction"], capex) and _same6(row["opex_reduction"], opex)):
            problems.append(f"comparison.csv n={n}: capex/opex columns differ from econ")
    return problems


def check_svg(name: str, text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"{name} is not XML: {exc}"]
    if root.tag.rsplit("}", 1)[-1] != "svg":
        return [f"{name} root is <{root.tag}>, not <svg>"]
    return []


def check_outputs(out_dir: Path, cfg: ScenarioConfig) -> list[str]:
    """Every problem found in the outputs of one sweep; empty when sound."""
    texts = {}
    problems = []
    for name in OUTPUT_FILES:
        try:
            texts[name] = (out_dir / name).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(f"{name}: {exc}")
    if problems:
        return problems
    problems += check_metrics(texts["metrics.csv"], cfg)
    problems += check_comparison(texts["comparison.csv"], cfg)
    for name in SVG_FILES:
        problems += check_svg(name, texts[name])
    return problems
