"""Evaluation harness: metrics, experiment runner, table/figure renderers."""

from repro.evalx.agility import AgilityBreakdown, breakdown
from repro.evalx.experiment import (
    DCA_RATES,
    MANAGER_NAMES,
    ExperimentConfig,
    build_simulator,
    run_all_managers,
    run_manager,
)
from repro.evalx.overhead import OverheadMeasurement, fig5_measurements, measure_overhead
from repro.evalx.reporting import (
    fig5_table,
    fig6_report,
    fig8_table,
    format_table,
    sla_table,
    sparkline,
)
from repro.evalx.sla import SLAReport, sla_report

__all__ = [
    "AgilityBreakdown",
    "DCA_RATES",
    "ExperimentConfig",
    "MANAGER_NAMES",
    "OverheadMeasurement",
    "SLAReport",
    "breakdown",
    "build_simulator",
    "fig5_measurements",
    "fig5_table",
    "fig6_report",
    "fig8_table",
    "format_table",
    "measure_overhead",
    "run_all_managers",
    "run_manager",
    "sla_report",
    "sla_table",
    "sparkline",
]
