"""Text renderers for the paper's tables and figures.

Produces the same rows/series the paper reports, as plain-text tables
(the benchmarks print these; EXPERIMENTS.md records them next to the
paper's numbers).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.errors import EvaluationError
from repro.evalx.overhead import OverheadMeasurement
from repro.sim.metrics import SimulationResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table with a header rule."""
    if not headers:
        raise EvaluationError("table requires headers")
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise EvaluationError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def fig5_table(measurements: Mapping[str, Mapping[float, OverheadMeasurement]]) -> str:
    """Fig. 5: runtime overhead (range + mean) per app per sampling level.

    One column pair per measured rate, in the order first measured.
    """
    headers = ["Application"]
    rates = list(dict.fromkeys(rate for per_rate in measurements.values() for rate in per_rate))
    for rate in rates:
        label = f"DCA-{rate * 100:g}%"
        headers.extend([f"{label} range", f"{label} mean"])
    rows: List[List[str]] = []
    for app_name in sorted(measurements):
        row = [app_name]
        per_rate = measurements[app_name]
        for rate in rates:
            m = per_rate.get(rate)
            if m is None:
                row.extend(["-", "-"])
            else:
                rng, mean = m.as_percent_row()
                row.extend([rng, mean])
        rows.append(row)
    return format_table(headers, rows)


def fig8_table(results_by_app: Mapping[str, Mapping[str, SimulationResult]]) -> str:
    """Fig. 8: average agility per application per manager."""
    manager_order = [
        "CloudWatch",
        "ElasticRMI",
        "HTrace+CW",
        "DCA-100%",
        "DCA-5%",
        "DCA-10%",
        "DCA-20%",
    ]
    headers = ["Application"] + manager_order
    rows: List[List[str]] = []
    for app_name in sorted(results_by_app):
        row = [app_name]
        per_manager = results_by_app[app_name]
        for manager in manager_order:
            result = per_manager.get(manager)
            row.append(f"{result.agility():.2f}" if result is not None else "-")
        rows.append(row)
    return format_table(headers, rows)


def sla_table(results_by_app: Mapping[str, Mapping[str, SimulationResult]]) -> str:
    """RQ5: SLA violation % per application per manager."""
    manager_order = [
        "CloudWatch",
        "ElasticRMI",
        "HTrace+CW",
        "DCA-100%",
        "DCA-5%",
        "DCA-10%",
        "DCA-20%",
    ]
    headers = ["Application"] + manager_order
    rows: List[List[str]] = []
    for app_name in sorted(results_by_app):
        row = [app_name]
        per_manager = results_by_app[app_name]
        for manager in manager_order:
            result = per_manager.get(manager)
            row.append(
                f"{result.sla_violation_percent():.2f}%" if result is not None else "-"
            )
        rows.append(row)
    return format_table(headers, rows)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Coarse ASCII sparkline for a time series (for Fig. 6/7 printouts)."""
    if not values:
        raise EvaluationError("sparkline requires at least one value")
    blocks = " ▁▂▃▄▅▆▇█"
    lo = min(values)
    hi = max(values)
    span = hi - lo
    step = max(1, len(values) // width)
    sampled = [values[i] for i in range(0, len(values), step)]
    if span <= 0:
        return blocks[1] * len(sampled)
    out = []
    for v in sampled:
        idx = 1 + int((v - lo) / span * (len(blocks) - 2))
        out.append(blocks[min(idx, len(blocks) - 1)])
    return "".join(out)


def fig6_report(results: Mapping[str, SimulationResult], app_name: str) -> str:
    """Fig. 6: agility and SLA-violation time series per manager (sparklines)."""
    lines = [f"Fig. 6 — {app_name}: agility over time (lower is better)"]
    for manager in sorted(results):
        series = [v for _, v in results[manager].agility_series()]
        lines.append(f"  {manager:<12} {sparkline(series)}  avg={sum(series) / len(series):.2f}")
    lines.append(f"Fig. 6 — {app_name}: % SLA violations over time")
    for manager in sorted(results):
        series = [v for _, v in results[manager].sla_violation_series()]
        lines.append(
            f"  {manager:<12} {sparkline(series)}  run={results[manager].sla_violation_percent():.2f}%"
        )
    return "\n".join(lines)
