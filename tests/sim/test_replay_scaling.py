"""Converged replay applies a class's frozen effect once per interval.

After the cutover ``ReplayIngestor._apply`` scales each class's frozen
telemetry delta by the interval's live-execution count instead of
merging it once per replayed execution.  Three things keep that honest:

* a count-based hot-path guard — no ``Histogram.merge`` after the
  cutover and at most one ``accumulate`` per (class, histogram,
  interval);
* tick-oracle parity at more than one value of the scale factor
  (``max_live_traces_per_class`` 1 and 5, beside the 16 the production
  cells in ``test_engine_parity.py`` / ``test_replay_prod.py`` use);
* the integrality guard — scaling a float sum equals repeated adds only
  for integral amounts, so a fractional histogram ``dsum`` must keep the
  run on live ingestion rather than be multiplied.
"""

from collections import Counter

import pytest

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.sim.engine import SimulationConfig
from repro.sim.events import ReplayIngestor, _replay_ops
from repro.sim.parity import run_engine_parity
from repro.telemetry import Histogram, MetricsRegistry, TelemetryError
from tests.sim.test_replay_prod import _assert_ok

SCENARIO_NAMES = ("marketcetera", "hedwig", "zookeeper")


def _prod_simulator(duration_minutes=24, live=16):
    config = ExperimentConfig(
        duration_minutes=duration_minutes,
        seed=7,
        sim=SimulationConfig(max_live_traces_per_class=live),
        engine="event",
        num_shards=4,
        write_batch_size=32,
    )
    return build_simulator(
        load_scenario("marketcetera"), "DCA-100%", config=config, registry=MetricsRegistry()
    )


class TestHotPathCallCounts:
    def test_no_merge_and_one_accumulate_per_class_histogram_interval(self, monkeypatch):
        log = []
        orig_merge, orig_accumulate = Histogram.merge, Histogram.accumulate
        orig_apply = ReplayIngestor._apply

        def spy_merge(self, data):
            log.append(("merge", self.key))
            return orig_merge(self, data)

        def spy_accumulate(self, *args, **kwargs):
            log.append(("accumulate", self.key))
            return orig_accumulate(self, *args, **kwargs)

        def spy_apply(self, state, live, remainder, now):
            log.append(("apply", now))
            return orig_apply(self, state, live, remainder, now)

        monkeypatch.setattr(Histogram, "merge", spy_merge)
        monkeypatch.setattr(Histogram, "accumulate", spy_accumulate)
        monkeypatch.setattr(ReplayIngestor, "_apply", spy_apply)

        simulator = _prod_simulator()
        simulator.run()
        ingestor = simulator.event_runner.ingestor
        assert ingestor.replaying and ingestor.replayed_executions > 0

        first_apply = next(i for i, entry in enumerate(log) if entry[0] == "apply")
        assert log[first_apply][1] > ingestor.cutover_minute
        replayed = log[first_apply:]
        assert not [entry for entry in replayed if entry[0] == "merge"]

        # Split the post-cutover log into one segment per (class, interval).
        segments = []
        for kind, detail in replayed:
            if kind == "apply":
                segments.append(Counter())
            else:
                segments[-1][detail] += 1
        intervals = {now for kind, now in replayed if kind == "apply"}
        assert len(segments) == len(intervals) * len(ingestor.states)
        histograms = {key for segment in segments for key in segment}
        assert histograms  # the frozen deltas do carry histograms
        for segment in segments:
            assert set(segment.values()) <= {1}, segment
        # ... while each of those segments stood for many executions.
        assert ingestor.replayed_executions >= 16 * len(segments)


class TestScaleFactorParity:
    """``live`` is the scale factor, so the tick oracle must see more
    than one value of it (the production cells all run at 16)."""

    @pytest.mark.parametrize("live", [1, 5])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_cutover_engages_and_matches_tick_oracle(self, scenario, live):
        report = run_engine_parity(
            scenario,
            "DCA-100%",
            duration_minutes=120,
            num_shards=4,
            write_batch_size=32,
            max_live_traces_per_class=live,
        )
        _assert_ok(report)
        assert report.replay_engaged
        assert report.replayed_executions > 0


class TestIntegralityGuard:
    def _change(self, dsum, buckets=(0, 1, 0)):
        return (1, dsum, buckets, 2.0, 2.0)

    def test_integral_delta_compiles_to_an_accumulate_call(self):
        metric = Histogram("h", buckets=(1, 5))
        ops = _replay_ops({"h": self._change(2.0)}, {"h": metric})
        assert ops == [(metric, (1, 2.0, (0, 1, 0), 2.0, 2.0))]
        metric.apply(ops[0][1], 3)
        assert (metric.count, metric.sum, metric.bucket_counts) == (3, 6.0, (0, 3, 0))

    def test_fractional_sum_does_not_compile(self):
        metric = Histogram("h", buckets=(1, 5))
        assert _replay_ops({"h": self._change(0.5)}, {"h": metric}) is None

    def test_wrong_bucket_count_raises(self):
        metric = Histogram("h", buckets=(1, 5))
        with pytest.raises(TelemetryError, match="bucket deltas"):
            metric.apply(self._change(2.0, buckets=(0, 1)), 3)

    @pytest.mark.parametrize("observation, engages", [(0.5, False), (2.0, True)])
    def test_fractional_histogram_keeps_the_run_live(self, observation, engages):
        """Every execution also observes ``observation`` into one extra
        histogram.  At 2.0 the run cuts over as usual; at 0.5 every class
        still converges, but the freeze must refuse to scale the sum."""
        simulator = _prod_simulator()
        extra = simulator.telemetry.histogram("test.per_execution", buckets=(1, 5))
        tracker = simulator.dca.tracker
        observe_all = tracker.observe_all

        def observing(messages):
            extra.observe(observation)
            return observe_all(messages)

        tracker.observe_all = observing
        simulator.run()
        ingestor = simulator.event_runner.ingestor
        assert all(state.converged for state in ingestor.states.values())
        assert ingestor.replaying is engages
        total = ingestor.live_executions + ingestor.replayed_executions
        assert extra.count == total and extra.sum == observation * total
        if engages:
            assert ingestor.replayed_executions > 0
        else:
            assert ingestor.cutover_minute is None
            assert ingestor.replayed_executions == 0
