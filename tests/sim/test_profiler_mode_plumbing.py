"""Profiler precision-mode plumbing: config, CLI, and replay eligibility.

The sketch tiers change what the event engine may replay: batched
replayed record ops are additive for exact buckets but would change
space-saving promotion order, so any non-exact profiler (or a manager
that can downshift into one mid-run) must cleanly disable the
converged-replay cutover while still running under the event engine.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.cli import main
from repro.core.elasticity import ProfileStalenessDetector, StalenessPolicy
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
            {"profiler_topk": 0},
            {"store_backend": "titan"},
            {"store_backend": "log"},
        ],
        ids=["topk-0", "unknown-backend", "log-without-store-dir"],
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
        sim, _ = _build(profiler_mode="topk", profiler_topk=64)
        assert sim.dca.profiler.mode == "topk"
        assert sim.dca.profiler.topk_k == 64

    def test_component_mode(self):
        sim, _ = _build(profiler_mode="component")
        assert sim.dca.profiler.mode == "component"

    def test_baseline_manager_unaffected(self):
        sim, _ = _build(manager="CloudWatch", profiler_mode="topk")
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
                "topk",
                "--profiler-topk",
                "64",
            ]
        ) == 0
        assert "agility" in capsys.readouterr().out

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "hedwig", "--manager", "DCA-10%", "--profiler-mode", "fuzzy"]
            )


class TestReplayEligibility:
    def test_sketch_mode_disables_cutover(self):
        # Long enough that an exact-mode run would engage replay
        # (~80 intervals to converge); topk must run full fidelity.
        config = ExperimentConfig(
            duration_minutes=160, seed=7, engine="event", profiler_mode="topk"
        )
        sim = build_simulator(
            load_scenario("marketcetera"),
            "DCA-100%",
            config=config,
            registry=MetricsRegistry(),
        )
        sim.run()
        assert sim.event_runner.ingestor is None

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

    def test_ingestor_rejects_sketch_profiler(self):
        sim, _ = _build(engine="event", profiler_mode="topk")
        with pytest.raises(ValueError):
            ReplayIngestor(sim)

    def test_ingestor_rejects_downshift_capable_manager(self):
        sim, registry = _build(engine="event")
        sim.manager.staleness_detector = ProfileStalenessDetector(
            sim.dca.profiler,
            StalenessPolicy(downshift_mode="topk"),
            registry,
        )
        with pytest.raises(ValueError):
            ReplayIngestor(sim)

    def test_downshift_capable_manager_disables_eligibility(self):
        sim, registry = _build(engine="event")
        sim.manager.staleness_detector = ProfileStalenessDetector(
            sim.dca.profiler,
            StalenessPolicy(downshift_mode="component"),
            registry,
        )
        sim.run()
        assert sim.event_runner.ingestor is None


class TestTopKEngineSmoke:
    def test_tick_and_event_agree_in_topk_mode(self):
        """With replay disabled, both engines drive the same full-fidelity
        ingestion — interval records must match exactly."""
        results = {}
        for engine in ("tick", "event"):
            sim, _ = _build(engine=engine, profiler_mode="topk", profiler_topk=64)
            results[engine] = sim.run()
        diffs = diff_results(results["tick"], results["event"])
        assert not diffs, diffs
