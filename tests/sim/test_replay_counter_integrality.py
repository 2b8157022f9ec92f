"""Frozen counter amounts get the integrality check histogram sums have.

``ReplayIngestor._apply`` scales a class's counter delta by the
interval's live-execution count — ``inc(amount * live)`` — which is the
float ``live`` successive ``inc(amount)`` calls produce only for an
integral ``amount`` (``tracker.retry_backoff_ms`` is a float counter).
The freeze must keep a run with a fractional amount on live ingestion,
exactly as ``test_replay_scaling.py`` pins for a fractional histogram
sum.
"""

import pytest

from tests.sim.test_replay_scaling import _prod_simulator


@pytest.mark.parametrize("amount, engages", [(0.5, False), (2.0, True)])
def test_fractional_counter_keeps_the_run_live(amount, engages):
    """Every execution also adds ``amount`` to one extra counter.  At 2.0
    the run cuts over as usual; at 0.5 every class still converges, but
    the freeze must refuse to scale the amount."""
    simulator = _prod_simulator()
    extra = simulator.telemetry.counter("test.per_execution")
    tracker = simulator.dca.tracker
    observe_all = tracker.observe_all

    def counting(messages):
        extra.inc(amount)
        return observe_all(messages)

    tracker.observe_all = counting
    simulator.run()
    runner = simulator.event_runner
    ingestor = runner.ingestor
    assert all(state.converged for state in ingestor.states.values())
    assert ingestor.replaying is engages
    total = ingestor.live_executions + ingestor.replayed_executions
    assert extra.value == amount * total
    if engages:
        assert ingestor.replayed_executions > 0
        assert runner.replay_report().startswith("engaged at minute")
    else:
        assert ingestor.cutover_minute is None
        assert ingestor.replayed_executions == 0
        assert "fractional" in runner.replay_report()
