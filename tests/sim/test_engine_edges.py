"""Event-engine edge cases: the corners where tick/event could diverge.

The scenario-suite parity tests (``test_engine_parity.py``) cover the
paper configurations; these tests pin down the boundary conditions the
event engine must handle exactly like the tick oracle:

* one-interval runs (nothing ever matures or delivers),
* non-unit ``interval_minutes`` (boundary spacing, rate conversion),
* fault delays landing exactly on an interval boundary,
* the event-clocked ``_inject_failures`` roll (pinned seeded counts),
* the converged-replay cutover machinery itself.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.errors import SimulationError
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.faults.plan import FaultPlan
from repro.sim.engine import SimulationConfig
from repro.sim.parity import diff_results, diff_snapshots
from repro.telemetry import MetricsRegistry


def _run_pair(
    scenario_name,
    manager,
    duration_minutes,
    seed=7,
    interval_minutes=None,
    node_failure_rate=None,
    failure_seed=0,
    fault_plan=None,
    path_timeout_minutes=None,
):
    """Run one config under both engines; return {engine: (sim, result, snap)}."""
    out = {}
    for engine in ("tick", "event"):
        sim_config = SimulationConfig()
        if interval_minutes is not None:
            sim_config.interval_minutes = interval_minutes
        if node_failure_rate is not None:
            sim_config.node_failure_rate_per_min = node_failure_rate
            sim_config.failure_seed = failure_seed
        config = ExperimentConfig(
            duration_minutes=duration_minutes,
            seed=seed,
            sim=sim_config,
            engine=engine,
        )
        registry = MetricsRegistry()
        sim = build_simulator(
            load_scenario(scenario_name),
            manager,
            config=config,
            registry=registry,
            fault_plan=fault_plan,
            path_timeout_minutes=path_timeout_minutes,
        )
        result = sim.run()
        out[engine] = (sim, result, registry.snapshot())
    return out


def _assert_pair_parity(pair):
    _, tick_result, tick_snap = pair["tick"]
    _, event_result, event_snap = pair["event"]
    diffs = diff_results(tick_result, event_result)
    assert not diffs, diffs
    diffs = diff_snapshots(tick_snap, event_snap)
    assert not diffs, diffs
    assert pair["tick"][0].nodes_failed_total == pair["event"][0].nodes_failed_total


def _assert_delayed_deliveries(pair):
    """Both engines delivered the same, non-zero number of delayed messages."""
    delivered = {
        engine: pair[engine][2]["metrics"]["tracker.delayed_messages_delivered"]["value"]
        for engine in ("tick", "event")
    }
    assert delivered["event"] > 0
    assert delivered["event"] == delivered["tick"]


class TestDurationEdges:
    def test_single_interval_run(self):
        pair = _run_pair("hedwig", "DCA-100%", duration_minutes=1)
        _assert_pair_parity(pair)
        assert len(pair["event"][1].records) == 1
        assert pair["event"][1].records[0].time_minutes == 0.0

    def test_zero_duration_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(duration_minutes=0)

    @pytest.mark.parametrize("live", [0, -3])
    def test_no_live_traces_rejected(self, live):
        """< 1 would sample requests but never execute one: a starved profiler."""
        with pytest.raises(SimulationError):
            SimulationConfig(max_live_traces_per_class=live)


class TestNonUnitIntervals:
    """interval_minutes != 1.0: spacing and rate conversion must agree."""

    @pytest.mark.parametrize("interval_minutes", [0.5, 2.0])
    def test_parity(self, interval_minutes):
        pair = _run_pair(
            "hedwig",
            "DCA-10%",
            duration_minutes=30,
            interval_minutes=interval_minutes,
        )
        _assert_pair_parity(pair)

    @pytest.mark.parametrize(
        "interval_minutes,expected_intervals", [(0.5, 60), (2.0, 15)]
    )
    def test_record_spacing(self, interval_minutes, expected_intervals):
        pair = _run_pair(
            "hedwig",
            "CloudWatch",
            duration_minutes=30,
            interval_minutes=interval_minutes,
        )
        records = pair["event"][1].records
        assert len(records) == expected_intervals
        times = [r.time_minutes for r in records]
        assert times == [k * interval_minutes for k in range(expected_intervals)]

    def test_half_interval_with_faults(self):
        plan = FaultPlan(seed=5, message_delay_rate=0.4, message_delay_minutes=0.7)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=20,
            interval_minutes=0.5,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)


class TestBoundaryDelays:
    def test_delay_landing_exactly_on_boundary(self):
        """delay == interval length: ETA falls exactly on the next boundary."""
        plan = FaultPlan(seed=11, message_delay_rate=0.6, message_delay_minutes=1.0)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=40,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)
        _assert_delayed_deliveries(pair)

    def test_fractional_delay(self):
        """A mid-interval ETA is delivered at the *next* boundary, like tick."""
        plan = FaultPlan(seed=11, message_delay_rate=0.6, message_delay_minutes=1.5)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=40,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)
        _assert_delayed_deliveries(pair)


class TestEventClockedFailureRolls:
    """_inject_failures consumes the event clock, not whole-minute ticks.

    The counts are pinned so any change to the roll schedule (the
    ``dt = now - last_roll`` accounting) shows up as a diff, and both
    engines must reproduce them exactly.
    """

    @pytest.mark.parametrize(
        "failure_seed,rate,expected_failed",
        [(3, 0.05, 68), (11, 0.02, 30)],
    )
    def test_pinned_seeded_counts(self, failure_seed, rate, expected_failed):
        pair = _run_pair(
            "hedwig",
            "ElasticRMI",
            duration_minutes=60,
            node_failure_rate=rate,
            failure_seed=failure_seed,
        )
        _assert_pair_parity(pair)
        assert pair["tick"][0].nodes_failed_total == expected_failed
        assert pair["event"][0].nodes_failed_total == expected_failed


class TestReplayCutover:
    def test_replay_engages_on_long_plain_runs(self):
        pair = _run_pair("marketcetera", "DCA-100%", duration_minutes=160)
        _assert_pair_parity(pair)
        runner = pair["event"][0].event_runner
        assert runner.ingestor is not None
        assert runner.ingestor.replaying
        assert runner.ingestor.replayed_executions > 0
        assert runner.ingestor.cutover_minute is not None

    def test_replay_disabled_under_faults(self):
        """Fault-injected runs must take the full-fidelity path."""
        plan = FaultPlan(seed=3, message_drop_rate=0.1)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=40,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)
        runner = pair["event"][0].event_runner
        assert runner.ingestor is None
        # A refused run is the tick loop: one pass per interval, nothing else.
        assert runner.events_processed == {"interval": 40}

    def test_replay_disabled_for_baseline_managers(self):
        pair = _run_pair("hedwig", "CloudWatch", duration_minutes=40)
        _assert_pair_parity(pair)
        assert pair["event"][0].event_runner.ingestor is None
