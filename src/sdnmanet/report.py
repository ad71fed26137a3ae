"""CSV serialization of sweep results.

Fixed column order, RFC-4180-style rows (CRLF line endings, quoting only
when needed), floats rendered with six significant digits and a ``.``
decimal point regardless of locale, so identical runs produce identical
bytes on every platform. The columns of each table are the fields of its
record type, in declaration order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields
from typing import Iterable

from .simulator import ComparisonReport, ComparisonRow, MetricsReport

METRICS_COLUMNS = tuple(f.name for f in fields(MetricsReport))

COMPARISON_COLUMNS = tuple(f.name for f in fields(ComparisonRow))

#: Reads one cell back, by the declared type of its field.
_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda cell: cell == "true"}


def format_value(value: object) -> str:
    """Render one CSV cell: bools as true/false, floats to 6 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def render_csv(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """A header line, then one line per row with every cell rendered by
    ``format_value``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(value) for value in row])
    return buffer.getvalue()


def metrics_row(report: MetricsReport) -> list[object]:
    """One report's values in ``METRICS_COLUMNS`` order."""
    return [getattr(report, column) for column in METRICS_COLUMNS]


def render_metrics_csv(pairs: list[tuple[MetricsReport, MetricsReport]]) -> str:
    """Metrics table: ascending n, traditional before sdn at each point."""
    return render_csv(METRICS_COLUMNS, (metrics_row(report) for pair in pairs for report in pair))


def render_comparison_csv(report: ComparisonReport) -> str:
    return render_csv(
        COMPARISON_COLUMNS,
        ([getattr(row, column) for column in COMPARISON_COLUMNS] for row in report.rows),
    )


def render_single_metrics_csv(report: MetricsReport) -> str:
    return render_csv(METRICS_COLUMNS, [metrics_row(report)])


def parse_metrics_csv(text: str) -> list[MetricsReport]:
    """Parse a metrics table back into reports (at serialized precision)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != METRICS_COLUMNS:
        raise ValueError(f"unexpected metrics header: {header}")
    parsers = [_PARSERS[f.type] for f in fields(MetricsReport)]
    reports = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(parsers):
            raise ValueError(f"metrics row has {len(row)} fields, expected {len(parsers)}")
        reports.append(MetricsReport(*(parse(cell) for parse, cell in zip(parsers, row))))
    return reports
