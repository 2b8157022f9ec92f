"""Profiler precision-mode plumbing: config, CLI, and replay eligibility.

The mode is fixed when the profiler is built.  Either mode is eligible
for converged replay: a batched replayed record adds to the window (path
ids or components) exactly as the executions it stands for would.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.cli import main
from repro.errors import EvaluationError
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.sim.events import ReplayIngestor
from repro.sim.parity import diff_results
from repro.telemetry import MetricsRegistry


def _build(manager="DCA-10%", engine="tick", scenario="hedwig", **cfg_kwargs):
    config = ExperimentConfig(duration_minutes=40, seed=7, engine=engine, **cfg_kwargs)
    registry = MetricsRegistry()
    sim = build_simulator(
        load_scenario(scenario), manager, config=config, registry=registry
    )
    return sim, registry


class TestConfigValidation:
    """``ExperimentConfig`` owns the profiler and store knobs and rejects a
    bad one at construction, for every manager: a baseline builds no DCA
    bundle that could catch it later."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {"store_backend": "titan"},
            {"store_backend": "log"},
        ],
        ids=["unknown-backend", "log-without-store-dir"],
    )
    def test_bad_knob_rejected_at_construction(self, knobs):
        with pytest.raises(EvaluationError, match=next(iter(knobs))):
            _build(manager="CloudWatch", **knobs)

    def test_experiment_config_rejects_unknown_mode(self):
        with pytest.raises(EvaluationError):
            ExperimentConfig(profiler_mode="fuzzy")

    def test_default_is_exact(self):
        assert ExperimentConfig().profiler_mode == "exact"


class TestBuildSimulator:
    def test_dca_profiler_gets_mode(self):
        sim, _ = _build()
        assert sim.dca.profiler.mode == "exact"

    def test_component_mode(self):
        sim, _ = _build(profiler_mode="component")
        assert sim.dca.profiler.mode == "component"

    def test_baseline_manager_unaffected(self):
        sim, _ = _build(manager="CloudWatch", profiler_mode="component")
        assert sim.dca is None


class TestCLI:
    def test_simulate_accepts_profiler_mode(self, capsys):
        assert main(
            [
                "simulate",
                "hedwig",
                "--manager",
                "DCA-10%",
                "--duration",
                "10",
                "--profiler-mode",
                "component",
            ]
        ) == 0
        assert "agility" in capsys.readouterr().out

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "hedwig", "--manager", "DCA-10%", "--profiler-mode", "fuzzy"]
            )


class TestReplayEligibility:
    def test_component_mode_engages(self):
        # Long enough to converge (~80 intervals) and cut over.
        config = ExperimentConfig(
            duration_minutes=160, seed=7, engine="event", profiler_mode="component"
        )
        sim = build_simulator(
            load_scenario("marketcetera"),
            "DCA-100%",
            config=config,
            registry=MetricsRegistry(),
        )
        sim.run()
        assert sim.event_runner.ingestor is not None
        assert sim.event_runner.ingestor.replaying

    def test_exact_mode_still_engages(self):
        config = ExperimentConfig(duration_minutes=160, seed=7, engine="event")
        sim = build_simulator(
            load_scenario("marketcetera"),
            "DCA-100%",
            config=config,
            registry=MetricsRegistry(),
        )
        sim.run()
        assert sim.event_runner.ingestor is not None
        assert sim.event_runner.ingestor.replaying

    def test_ingestor_accepts_component_profiler(self):
        sim, _ = _build(engine="event", profiler_mode="component")
        assert ReplayIngestor(sim).sim is sim


class TestComponentEngineSmoke:
    def test_tick_and_event_agree_in_component_mode(self):
        """Both engines drive the same ingestion before any cutover —
        interval records must match exactly."""
        results = {}
        for engine in ("tick", "event"):
            sim, _ = _build(engine=engine, profiler_mode="component")
            results[engine] = sim.run()
        diffs = diff_results(results["tick"], results["event"])
        assert not diffs, diffs
