"""SLA-violation analysis (RQ5 of the paper).

"Due to the fact that some applications and organizations can tolerate
an excess of resources but not shortage, it is important to evaluate how
frequently and to what extent … application SLAs [are] violated."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class SLAReport:
    """SLA outcomes for one run."""

    violation_percent: float
    violation_percent_while_decreasing: float
    worst_interval_percent: float
    violating_intervals: int
    total_intervals: int


def sla_report(result: SimulationResult) -> SLAReport:
    """Summarise a run's SLA behaviour."""
    records = result.records
    if not records:
        raise EvaluationError("empty simulation result")
    worst = max((100.0 * r.sla_violation_fraction for r in records), default=0.0)
    violating = sum(1 for r in records if r.sla_violation_fraction > 0)
    return SLAReport(
        violation_percent=result.sla_violation_percent(),
        violation_percent_while_decreasing=result.decreasing_interval_violations(),
        worst_interval_percent=worst,
        violating_intervals=violating,
        total_intervals=len(records),
    )
