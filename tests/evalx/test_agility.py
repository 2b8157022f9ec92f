"""Unit tests for the Agility metric helpers."""

import pytest

from repro.errors import EvaluationError
from repro.evalx.agility import breakdown
from repro.sim.metrics import SimulationResult
from tests.sim.test_metrics import _comp, _record


class TestBreakdown:
    def _result(self, records):
        res = SimulationResult(manager_name="m", application="a")
        for r in records:
            res.append(r)
        return res

    def test_excess_dominated_flag(self):
        res = self._result([_record(comps={"a": _comp(provisioned=9, req=5)})])
        b = breakdown(res)
        assert b.excess_dominated
        assert b.agility == pytest.approx(4.0)

    def test_shortage_dominated(self):
        res = self._result([_record(comps={"a": _comp(provisioned=2, ready=2, req=6)})])
        assert not breakdown(res).excess_dominated

    def test_empty_raises(self):
        with pytest.raises(EvaluationError):
            breakdown(self._result([]))
