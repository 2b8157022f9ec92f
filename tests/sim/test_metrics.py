"""Unit tests for interval records and run-level metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EvaluationError
from repro.sim.metrics import ComponentInterval, IntervalRecord, SimulationResult


def _comp(name="a", base=1000.0, overhead=0.0, provisioned=5, ready=5, req=5, pending=0):
    return ComponentInterval(
        component=name,
        base_demand_ms=base,
        overhead_ms=overhead,
        capacity_ms=ready * 1000.0,
        utilization=base / max(1.0, ready * 1000.0),
        backlog_ms=0.0,
        ready_nodes=ready,
        pending_nodes=pending,
        provisioned_nodes=provisioned,
        req_min_nodes=req,
        latency_inflation=1.5,
    )


def _record(time=0.0, comps=None, arrivals=100.0, sla_frac=0.0, decreasing=False):
    comps = comps if comps is not None else {"a": _comp()}
    return IntervalRecord(
        time_minutes=time,
        external_arrivals=arrivals,
        class_arrivals={"c": int(arrivals)},
        components=comps,
        sla_violation_fraction=sla_frac,
        app_latency_ms=100.0,
        workload_decreasing=decreasing,
        sampled_requests=0,
    )


class TestComponentInterval:
    def test_excess(self):
        c = _comp(provisioned=8, req=5)
        assert c.excess_nodes == 3
        assert c.shortage_nodes == 0

    def test_shortage_vs_provisioned(self):
        c = _comp(provisioned=3, ready=3, req=5)
        assert c.shortage_nodes == 2
        assert c.excess_nodes == 0

    def test_pending_counts_toward_provisioned(self):
        c = _comp(provisioned=5, ready=3, pending=2, req=5)
        assert c.shortage_nodes == 0

    def test_exact_match_is_zero(self):
        c = _comp(provisioned=5, req=5)
        assert c.excess_nodes == 0
        assert c.shortage_nodes == 0


class TestIntervalRecord:
    def test_aggregation_over_components(self):
        r = _record(comps={"a": _comp("a", provisioned=8, req=5), "b": _comp("b", provisioned=2, ready=2, req=4)})
        assert r.excess == 3
        assert r.shortage == 2
        assert r.agility_contribution == 5

    def test_overhead_fraction(self):
        r = _record(comps={"a": _comp(base=1000.0, overhead=100.0)})
        assert r.overhead_fraction == pytest.approx(0.1)


class TestSimulationResult:
    def _result(self, records):
        res = SimulationResult(manager_name="m", application="app")
        for r in records:
            res.append(r)
        return res

    def test_empty_result_raises(self):
        with pytest.raises(EvaluationError):
            self._result([]).agility()

    def test_agility_is_mean_contribution(self):
        records = [
            _record(comps={"a": _comp(provisioned=7, req=5)}),
            _record(comps={"a": _comp(provisioned=5, req=5)}),
        ]
        assert self._result(records).agility() == pytest.approx(1.0)

    def test_sla_percent_request_weighted(self):
        records = [
            _record(arrivals=900, sla_frac=0.0),
            _record(arrivals=100, sla_frac=1.0),
        ]
        assert self._result(records).sla_violation_percent() == pytest.approx(10.0)

    def test_zero_agility_fraction(self):
        records = [
            _record(comps={"a": _comp(provisioned=5, req=5)}),
            _record(comps={"a": _comp(provisioned=6, req=5)}),
        ]
        assert self._result(records).zero_agility_fraction() == 0.5
        # Three of four intervals provisioned exactly: a share that is not
        # its own complement.
        records = [
            _record(comps={"a": _comp(provisioned=5, req=5)}),
            _record(comps={"a": _comp(provisioned=4, ready=4, req=5)}),
            _record(comps={"a": _comp(provisioned=7, req=7)}),
            _record(comps={"a": _comp(provisioned=2, req=2)}),
        ]
        assert self._result(records).zero_agility_fraction() == 0.75

    def test_sla_violation_series_is_a_percentage_per_interval(self):
        records = [_record(time=0.0, sla_frac=0.25), _record(time=1.0, sla_frac=0.0)]
        assert self._result(records).sla_violation_series() == [(0.0, 25.0), (1.0, 0.0)]

    def test_overhead_stats(self):
        records = [_record(comps={"a": _comp(base=1000, overhead=f)}) for f in (50.0, 100.0, 150.0)]
        res = self._result(records)
        assert res.overhead_mean() == pytest.approx(0.1)

    def test_series_lengths(self):
        res = self._result([_record(time=float(t)) for t in range(5)])
        assert len(res.agility_series()) == 5
        assert len(res.sla_violation_series()) == 5
        assert len(res.workload_series()) == 5
        assert len(res.records) == 5

    def test_decreasing_interval_violations(self):
        records = [
            _record(sla_frac=0.5, decreasing=False),
            _record(sla_frac=0.0, decreasing=True),
        ]
        assert self._result(records).decreasing_interval_violations() == 0.0
        # Decreasing intervals only, weighted by arrivals:
        # (0.2 * 100 + 0.05 * 300) / (100 + 300) = 35 / 400 = 8.75 %; the
        # rising interval's 50 % is left out.
        records = [
            _record(sla_frac=0.5, decreasing=False),
            _record(sla_frac=0.2, arrivals=100.0, decreasing=True),
            _record(sla_frac=0.05, arrivals=300.0, decreasing=True),
        ]
        assert self._result(records).decreasing_interval_violations() == pytest.approx(8.75)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=30))
    def test_agility_non_negative_and_zero_iff_exact(self, pairs):
        records = [
            _record(comps={"a": _comp(provisioned=prov, ready=max(1, prov), req=req)})
            for prov, req in pairs
        ]
        res = self._result(records)
        assert res.agility() >= 0
        if all(p == r for p, r in pairs):
            assert res.agility() == 0
