"""Unit tests for the component tier over the sliding window."""

import pytest

from repro.profiling.sketches import ComponentActivitySummary


class TestComponentActivitySummary:
    def test_totals_and_weights(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A", "B"), 3, 0.0)
        summary.record(("B",), 1, 1.0)
        totals = summary.totals(1.0)
        assert totals == {"A": 3, "B": 4}
        weights = summary.weights(1.0)
        assert weights["A"] == pytest.approx(3 / 4)
        assert weights["B"] == pytest.approx(1.0)

    def test_window_ages_out(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A",), 5, 0.0)
        summary.record(("A",), 2, 40.0)
        assert summary.totals(61.0) == {"A": 2}
        assert summary.request_total == 2

    def test_totals_between(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A",), 5, 0.0)
        summary.record(("A", "B"), 2, 40.0)
        assert summary.counts_between((), 0.0, 10.0) == {"A": 5}
        assert summary.sample_total_between(0.0, 50.0) == 7

    def test_state_round_trip(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A", "B"), 3, 5.0)
        summary.record(("B", "C"), 2, 30.0)
        restored = ComponentActivitySummary.from_state(summary.to_state(), 60.0)
        assert restored.totals(30.0) == summary.totals(30.0)
        assert restored.request_total == summary.request_total
        restored.advance(70.0)
        assert restored.totals(70.0) == {"B": 2, "C": 2}
