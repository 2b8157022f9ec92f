"""Unit tests for SLA reports, overhead measurement, and table rendering."""

import pytest

from repro.errors import EvaluationError
from repro.evalx.overhead import OverheadMeasurement, measure_overhead
from repro.evalx.reporting import fig5_table, fig8_table, format_table, sla_table, sparkline
from repro.evalx.sla import sla_report
from repro.sim.metrics import SimulationResult
from tests.sim.test_metrics import _comp, _record


def _result(records, name="m"):
    res = SimulationResult(manager_name=name, application="a")
    for r in records:
        res.append(r)
    return res


class TestSLAReport:
    def test_report_fields(self):
        res = _result(
            [
                _record(arrivals=100, sla_frac=0.1),
                _record(arrivals=100, sla_frac=0.0, decreasing=True),
            ]
        )
        report = sla_report(res)
        assert report.violation_percent == pytest.approx(5.0)
        assert report.violation_percent_while_decreasing == 0.0
        assert report.worst_interval_percent == pytest.approx(10.0)
        assert report.violating_intervals == 1
        assert report.total_intervals == 2

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            sla_report(_result([]))


class TestOverheadMeasurement:
    def test_short_measurement_sane(self):
        from repro.apps.catalog import load_scenario

        scenario = load_scenario("hedwig")
        m = measure_overhead(scenario, 0.10, duration_minutes=60)
        assert 0.0 < m.mean < 0.3
        assert m.low_95 <= m.mean <= m.high_95

    def test_rate_validation(self):
        from repro.apps.catalog import load_scenario

        scenario = load_scenario("hedwig")
        with pytest.raises(EvaluationError):
            measure_overhead(scenario, 1.5)

    def test_percent_row_format(self):
        m = OverheadMeasurement("app", 0.1, mean=0.0539, low_95=0.039, high_95=0.062)
        rng, mean = m.as_percent_row()
        assert rng == "3.9–6.2%"
        assert mean == "5.39%"


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_width_mismatch(self):
        with pytest.raises(EvaluationError):
            format_table(["a"], [["1", "2"]])

    def test_fig5_table_includes_all_rates(self):
        m = OverheadMeasurement("hedwig", 0.05, 0.03, 0.02, 0.04)
        text = fig5_table({"hedwig": {0.05: m}})
        assert "DCA-5% mean" in text
        assert "hedwig" in text
        assert "3.00%" in text

    def test_fig5_table_has_a_column_pair_per_measured_rate(self):
        m = OverheadMeasurement("hedwig", 0.5, 0.03, 0.02, 0.04)
        header = fig5_table({"hedwig": {0.5: m, 0.1: m, 0.125: m}}).splitlines()[0]
        assert header.split() == [
            "Application", "DCA-50%", "range", "DCA-50%", "mean", "DCA-10%", "range",
            "DCA-10%", "mean", "DCA-12.5%", "range", "DCA-12.5%", "mean",
        ]
        assert "-" not in fig5_table({"hedwig": {0.5: m}}).splitlines()[-1].split()

    def test_fig8_table(self):
        res = _result([_record(comps={"a": _comp(provisioned=7, req=5)})], "CloudWatch")
        text = fig8_table({"hedwig": {"CloudWatch": res}})
        assert "CloudWatch" in text
        assert "2.00" in text

    def test_sla_table(self):
        res = _result([_record(sla_frac=0.1)], "CloudWatch")
        text = sla_table({"hedwig": {"CloudWatch": res}})
        assert "10.00%" in text

    def test_sparkline(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] != line[-1]

    def test_sparkline_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_sparkline_empty_rejected(self):
        with pytest.raises(EvaluationError):
            sparkline([])
