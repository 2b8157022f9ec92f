"""Seeded tick-vs-event equivalence over the scenario suite.

These tests *are* the parity oracle gate: for each seeded
configuration the tick loop and the event engine must produce
bit-identical ``IntervalRecord`` streams, telemetry snapshots (modulo
the documented volatile keys) and fault counters.  CI's
``engine-parity`` job runs them with ``PARITY_DURATION=450`` (the full
paper workload) and all seven managers; the local default keeps the
matrix small enough for the tier-1 run while still crossing the
converged-replay cutover (~80 intervals).

Environment knobs:

* ``PARITY_DURATION`` — simulated minutes per check (default 120).
* ``PARITY_MANAGERS`` — comma-separated manager subset (default a
  representative trio; CI passes all seven).
* ``PARITY_DIFF_DIR`` — where diverging runs dump their JSON diff
  artifact (uploaded by CI on failure).
"""

import os

import pytest

from repro.evalx.experiment import MANAGER_NAMES, ExperimentConfig, run_all_managers
from repro.faults import FAULT_SCENARIOS, build_fault_plan
from repro.sim.parity import diff_results, diff_snapshots, run_engine_parity
from repro.telemetry import MetricsRegistry

SCENARIO_NAMES = ("marketcetera", "hedwig", "zookeeper")

PARITY_DURATION = int(os.environ.get("PARITY_DURATION", "120"))
_default_managers = "CloudWatch,DCA-100%,DCA-10%"
PARITY_MANAGERS = tuple(
    name.strip()
    for name in os.environ.get("PARITY_MANAGERS", _default_managers).split(",")
    if name.strip()
)


def _assert_ok(report):
    assert report.ok, "\n".join(
        [report.summary()]
        + report.record_diffs
        + report.snapshot_diffs
        + report.state_diffs
    )


class TestScenarioParity:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    @pytest.mark.parametrize("manager", PARITY_MANAGERS)
    def test_tick_event_equivalence(self, scenario, manager):
        assert manager in MANAGER_NAMES
        report = run_engine_parity(scenario, manager, duration_minutes=PARITY_DURATION)
        _assert_ok(report)

    def test_alternate_seed(self):
        report = run_engine_parity(
            "hedwig", "DCA-100%", duration_minutes=PARITY_DURATION, seed=23
        )
        _assert_ok(report)


class TestFaultParity:
    """Every fault channel must behave identically under both engines."""

    @pytest.mark.parametrize("fault_scenario", sorted(FAULT_SCENARIOS))
    def test_fault_scenarios(self, fault_scenario):
        report = run_engine_parity(
            "hedwig",
            "DCA-10%",
            duration_minutes=40,
            fault_plan=build_fault_plan(fault_scenario, seed=7),
            path_timeout_minutes=5.0,
        )
        _assert_ok(report)

    def test_node_churn_baseline_manager(self):
        """Baseline managers see only the crash schedule — still parity."""
        report = run_engine_parity(
            "zookeeper",
            "ElasticRMI",
            duration_minutes=40,
            fault_plan=build_fault_plan("node-churn", seed=7),
        )
        _assert_ok(report)


class TestStoreConfigParity:
    """--engine event must compose bit-identically with --shards/--batch-size."""

    @pytest.mark.parametrize(
        "num_shards,write_batch_size", [(2, 1), (1, 8), (4, 16), (4, 32)]
    )
    def test_sharded_batched(self, num_shards, write_batch_size):
        report = run_engine_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=60,
            num_shards=num_shards,
            write_batch_size=write_batch_size,
        )
        _assert_ok(report)

    def test_production_config_engages_replay_cutover(self):
        """The newly eligible fast-path config: sharded *and* batched,
        cutover engaged, still bit-identical to the tick oracle.
        ``max_live_traces_per_class=16`` compresses the warmup so the
        convergence streak lands inside a tier-1-sized run."""
        report = run_engine_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=60,
            num_shards=4,
            write_batch_size=32,
            max_live_traces_per_class=16,
        )
        _assert_ok(report)
        assert report.replay_engaged
        assert report.replayed_executions > 0


class TestProfilerModeParity:
    """--profiler-mode topk must be engine-agnostic too.

    Sketch modes disable the converged-replay cutover, so both engines
    drive full-fidelity ingestion through the same sketch state machine;
    the parity oracle pins that the space-saving promotion order (and
    everything downstream of the estimated counts) matches bit for bit.
    """

    def test_topk_mode(self):
        report = run_engine_parity(
            "hedwig",
            "DCA-10%",
            duration_minutes=PARITY_DURATION,
            profiler_mode="topk",
            profiler_topk=64,
        )
        _assert_ok(report)


class TestParallelRunnerParity:
    def test_workers_compose_with_event_engine(self, tmp_path):
        """run_all_managers(workers=2) is engine-agnostic, bit for bit."""
        from repro.apps.catalog import load_scenario

        managers = ("CloudWatch", "DCA-10%")
        runs = {}
        snapshots = {}
        for engine in ("tick", "event"):
            registry = MetricsRegistry()
            config = ExperimentConfig(
                duration_minutes=40, seed=7, engine=engine
            )
            runs[engine] = run_all_managers(
                load_scenario("hedwig"),
                managers=managers,
                config=config,
                workers=2,
                registry=registry,
            )
            snapshots[engine] = registry.snapshot()
        for name in managers:
            diffs = diff_results(runs["tick"][name], runs["event"][name])
            assert not diffs, f"{name}: {diffs}"
        diffs = diff_snapshots(snapshots["tick"], snapshots["event"])
        assert not diffs, diffs


class TestDiffArtifact:
    def test_divergence_dumps_json(self, tmp_path, monkeypatch):
        """A diverging run must leave an inspectable artifact behind."""
        import json

        from repro.sim import parity as parity_mod

        report = parity_mod.ParityReport(
            scenario="hedwig",
            manager="DCA-10%",
            seed=7,
            duration_minutes=10,
            record_diffs=["interval[0].external_arrivals: tick=1.0 event=2.0"],
        )
        path = parity_mod._dump_report(report, str(tmp_path))
        assert path is not None and os.path.exists(path)
        payload = json.loads(open(path).read())
        assert payload["ok"] is False
        assert payload["record_diffs"]

    def test_env_var_controls_dump_dir(self, tmp_path, monkeypatch):
        from repro.sim import parity as parity_mod

        monkeypatch.setenv(parity_mod.PARITY_DIFF_DIR_ENV, str(tmp_path))
        report = parity_mod.ParityReport(
            scenario="zookeeper",
            manager="HTrace+CW",
            seed=3,
            duration_minutes=5,
            snapshot_diffs=["metric x: tick=1 event=2"],
        )
        path = parity_mod._dump_report(report, None)
        assert path is not None
        assert path.startswith(str(tmp_path))
        # Manager name must be filesystem-safe.
        assert "%" not in os.path.basename(path)
        assert "+" not in os.path.basename(path)

    def test_clean_report_is_ok(self):
        from repro.sim.parity import ParityReport

        report = ParityReport(
            scenario="hedwig", manager="DCA-10%", seed=7, duration_minutes=10
        )
        assert report.ok
        assert "OK" in report.summary()
