"""Tests for the experiment runner (manager construction + short runs)."""

import pytest

from repro.apps.catalog import load_scenario
from repro.errors import EvaluationError
from repro.evalx.experiment import (
    DCA_RATES,
    MANAGER_NAMES,
    ExperimentConfig,
    build_simulator,
    run_all_managers,
    run_manager,
)
from repro.sim.engine import SimulationConfig


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("hedwig")


class TestConstruction:
    def test_all_seven_managers_build(self, scenario):
        for name in MANAGER_NAMES:
            sim = build_simulator(scenario, name, ExperimentConfig(duration_minutes=5))
            assert sim.manager.name == name

    def test_unknown_manager_rejected(self, scenario):
        with pytest.raises(EvaluationError):
            build_simulator(scenario, "Kubernetes")

    def test_dca_rates_table(self):
        assert DCA_RATES["DCA-10%"] == 0.10
        assert DCA_RATES["DCA-100%"] == 1.0

    def test_dca_simulator_has_bundle(self, scenario):
        sim = build_simulator(scenario, "DCA-10%", ExperimentConfig(duration_minutes=5))
        assert sim.dca is not None
        assert sim.dca.sampling_rate == 0.10

    def test_htrace_simulator_has_collector(self, scenario):
        sim = build_simulator(scenario, "HTrace+CW", ExperimentConfig(duration_minutes=5))
        assert sim.htrace is not None

    def test_baselines_have_no_dca(self, scenario):
        sim = build_simulator(scenario, "CloudWatch", ExperimentConfig(duration_minutes=5))
        assert sim.dca is None

    def test_config_validation(self):
        with pytest.raises(EvaluationError):
            ExperimentConfig(duration_minutes=0)

    def test_sim_fields_it_owns_conflict_instead_of_being_overwritten(self):
        """A ``sim`` that sets a field the experiment config also carries
        gets an error, not a silent tick/exact/450-minute run."""
        sim = SimulationConfig(engine="event", duration_minutes=30)
        with pytest.raises(EvaluationError, match="sim.duration_minutes"):
            ExperimentConfig(sim=sim)
        assert (sim.engine, sim.duration_minutes) == ("event", 30)

    def test_sim_is_copied_never_mutated(self):
        sim = SimulationConfig(max_live_traces_per_class=16, duration_minutes=30)
        config = ExperimentConfig(sim=sim, duration_minutes=30, engine="event")
        assert config.sim is not sim
        assert (config.sim.engine, config.sim.duration_minutes) == ("event", 30)
        assert config.sim.max_live_traces_per_class == 16
        assert sim.engine == "tick"


class TestShortRuns:
    def test_run_manager_produces_result(self, scenario):
        result = run_manager(scenario, "ElasticRMI", ExperimentConfig(duration_minutes=20))
        assert len(result.records) == 20
        assert result.manager_name == "ElasticRMI"
        assert result.agility() >= 0

    def test_run_all_selected_managers(self, scenario):
        results = run_all_managers(
            scenario,
            managers=("CloudWatch", "DCA-10%"),
            config=ExperimentConfig(duration_minutes=15),
        )
        assert set(results) == {"CloudWatch", "DCA-10%"}

    def test_same_seed_same_result(self, scenario):
        cfg = ExperimentConfig(duration_minutes=15, seed=3)
        r1 = run_manager(scenario, "ElasticRMI", cfg)
        cfg2 = ExperimentConfig(duration_minutes=15, seed=3)
        r2 = run_manager(scenario, "ElasticRMI", cfg2)
        assert r1.agility() == r2.agility()
        assert r1.sla_violation_percent() == r2.sla_violation_percent()

    def test_dca_run_counts_paths(self, scenario):
        sim = build_simulator(scenario, "DCA-100%", ExperimentConfig(duration_minutes=10))
        result = sim.run()
        assert sim.dca.tracker.completed_paths > 0
        counts = sim.dca.profiler.counts(9.0)
        assert sum(counts.values()) > 0


class TestParallelRunner:
    def test_workers_match_serial_results(self, scenario):
        """Process workers must reproduce the serial runner bit-for-bit."""
        from repro.telemetry import MetricsRegistry

        managers = ("CloudWatch", "DCA-10%", "ElasticRMI")
        cfg = ExperimentConfig(duration_minutes=15, seed=7)
        serial = run_all_managers(scenario, managers=managers, config=cfg)
        registry = MetricsRegistry()
        parallel = run_all_managers(
            scenario, managers=managers, config=cfg, workers=3, registry=registry
        )
        assert set(parallel) == set(serial)
        for name in managers:
            assert parallel[name].agility() == serial[name].agility()
            assert (
                parallel[name].sla_violation_percent()
                == serial[name].sla_violation_percent()
            )
        # Worker telemetry was merged back into the parent registry.
        assert registry.counter("tracker.paths_completed").value > 0

    def test_worker_pool_matches_serial_memory(self, scenario):
        """A four-worker pool equals serial runs on the memory store.

        Equal :class:`~repro.sim.metrics.SimulationResult` per manager, and
        the per-worker telemetry snapshots merged into one registry digest
        exactly like one registry the serial runs all wrote into.
        """
        from repro.chaos.runner import telemetry_digest
        from repro.telemetry import MetricsRegistry

        managers = ("DCA-5%", "DCA-10%", "DCA-20%")
        cfg = ExperimentConfig(duration_minutes=10, seed=7)
        serial_registry = MetricsRegistry()
        serial = {
            name: build_simulator(scenario, name, cfg, registry=serial_registry).run()
            for name in managers
        }
        registry = MetricsRegistry()
        parallel = run_all_managers(
            scenario, managers=managers, config=cfg, workers=4, registry=registry
        )
        assert set(parallel) == set(serial)
        for name in managers:
            assert parallel[name] == serial[name], name
        assert registry.counter("tracker.paths_completed").value > 0
        assert telemetry_digest(registry.snapshot()) == telemetry_digest(
            serial_registry.snapshot()
        )

    def test_sharded_batched_config_travels_to_workers(self, scenario):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        cfg = ExperimentConfig(
            duration_minutes=15, seed=7, num_shards=4, write_batch_size=16
        )
        results = run_all_managers(
            scenario,
            managers=("DCA-10%", "DCA-100%"),
            config=cfg,
            workers=2,
            registry=registry,
        )
        assert set(results) == {"DCA-10%", "DCA-100%"}
        assert registry.counter("store.write_batches").value > 0
