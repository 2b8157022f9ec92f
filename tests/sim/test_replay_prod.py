"""Production-config fast paths, seeded across the board.

Two fast paths ship together and these are their acceptance gates:

* **Converged replay over sharded/batched stores** — 25 seeds of the
  fault-free DCA scenario at ``--shards 4 --batch-size 32 --engine
  event`` must each engage the cutover *and* stay bit-identical to the
  tick oracle (the :func:`~repro.sim.parity.run_engine_parity` report
  is the oracle).
* **Merged per-worker profiles** — ``--workers 4 --profiler-mode
  component`` must run without any exact-mode fallback, and the merged
  per-component counts must equal the sum of the per-run profiles.

``max_live_traces_per_class=16`` compresses the warmup (16 executions
per tick per class) so the 48-identical-execution streak lands within a
24-minute run; the eligibility and soundness story is identical to the
default configuration.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, MergedProfile, run_all_managers
from repro.sim.parity import run_engine_parity
from repro.telemetry import MetricsRegistry

SEEDS = range(25)


def _assert_ok(report):
    assert report.ok, "\n".join(
        [report.summary()]
        + report.record_diffs
        + report.snapshot_diffs
        + report.state_diffs
    )


class TestShardedBatchedReplayBitIdentity:
    """The tentpole gate: replay over production store configs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cutover_engages_and_matches_tick_oracle(self, seed):
        report = run_engine_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=24,
            seed=seed,
            num_shards=4,
            write_batch_size=32,
            max_live_traces_per_class=16,
        )
        _assert_ok(report)
        assert report.replay_engaged, "cutover must engage on the fast-path config"
        assert report.replayed_executions > 0

    def test_batched_unsharded_also_engages(self):
        report = run_engine_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=24,
            seed=7,
            num_shards=1,
            write_batch_size=32,
            max_live_traces_per_class=16,
        )
        _assert_ok(report)
        assert report.replay_engaged

    def test_sharded_unbatched_also_engages(self):
        report = run_engine_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=24,
            seed=7,
            num_shards=4,
            write_batch_size=1,
            max_live_traces_per_class=16,
        )
        _assert_ok(report)
        assert report.replay_engaged


def _component_sweep(workers):
    managers = ("DCA-100%", "DCA-20%", "DCA-10%", "DCA-5%")
    profile = MergedProfile()
    config = ExperimentConfig(
        duration_minutes=40,
        seed=7,
        engine="event",
        num_shards=4,
        write_batch_size=32,
        profiler_mode="component",
    )
    run_all_managers(
        load_scenario("hedwig"),
        managers=managers,
        config=config,
        workers=workers,
        registry=MetricsRegistry(),
        profile=profile,
    )
    return profile


class TestWorkersComponentMerge:
    """--workers 4 --profiler-mode component: merged windows, no fallback."""

    def test_merged_counts_equal_the_per_run_sum(self):
        profile = _component_sweep(workers=4)
        assert profile.profiler is not None
        # No exact-mode fallback anywhere: the sweep profiler and every
        # per-manager checkpoint stay in the component tier.
        assert profile.profiler.mode == "component"
        assert len(profile.by_manager) == 4
        assert all(p.mode == "component" for p in profile.by_manager.values())

        now = max(p.last_record_minutes for p in profile.by_manager.values())
        merged = profile.profiler.counts(now)
        reference = {}
        for run_profiler in profile.by_manager.values():
            for component, count in run_profiler.counts(now).items():
                reference[component] = reference.get(component, 0) + count
        assert merged, "merged profile saw no components"
        assert merged == reference

    def test_pool_merge_matches_serial_merge(self):
        """Worker fan-out must not change the merged profile at all."""
        pooled = _component_sweep(workers=4)
        serial = _component_sweep(workers=1)
        now = max(p.last_record_minutes for p in pooled.by_manager.values())
        assert pooled.profiler.counts(now) == serial.profiler.counts(now)
        assert pooled.profiler.sample_total_between(
            0.0, now
        ) == serial.profiler.sample_total_between(0.0, now)
