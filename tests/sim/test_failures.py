"""Failure-injection tests: elasticity under node churn."""

import pytest

from repro.errors import SimulationError
from repro.autoscale.elasticrmi import ElasticRMIManager
from repro.core.regression import MachineSpec
from repro.sim.cluster import ComponentGroup, DeploymentSpec
from repro.sim.engine import ClusterSimulator, SimulationConfig
from repro.workloads.generator import RequestClass
from repro.workloads.patterns import MixPhase, ScaledPattern, StepMixSchedule
from tests.workloads._fake_generator import ExpectedArrivalsGenerator

MACHINE = MachineSpec(capacity_ms_per_minute=1_000.0)


class TestFailNodes:
    def test_fail_reduces_ready(self):
        g = ComponentGroup("x", DeploymentSpec(initial_nodes=5))
        assert g.fail_nodes(2) == 2
        assert g.ready == 3

    def test_cannot_fail_more_than_ready(self):
        g = ComponentGroup("x", DeploymentSpec(initial_nodes=2))
        assert g.fail_nodes(10) == 2
        assert g.ready == 0

    def test_negative_count_rejected(self):
        g = ComponentGroup("x", DeploymentSpec(initial_nodes=2))
        with pytest.raises(SimulationError):
            g.fail_nodes(-1)

    def test_failed_nodes_not_refunded(self):
        g = ComponentGroup("x", DeploymentSpec(initial_nodes=5))
        g.fail_nodes(2)
        assert g.provisioned == 3  # no draining entry for crashed nodes


def _sim(pipeline_app, manager, failure_rate, duration=60, rate=100.0):
    classes = [RequestClass("go", "start", {"x": 5})]
    generator = ExpectedArrivalsGenerator(
        ScaledPattern(lambda t: 1.0, rate, rate),
        StepMixSchedule([MixPhase(0.0, {"go": 1.0})]),
        classes,
    )
    deployments = {name: DeploymentSpec(initial_nodes=3) for name in pipeline_app.components}
    return ClusterSimulator(
        pipeline_app,
        generator,
        deployments,
        MACHINE,
        manager,
        config=SimulationConfig(
            duration_minutes=duration,
            node_failure_rate_per_min=failure_rate,
            failure_seed=3,
        ),
    )


class TestFailureInjection:
    def test_rate_validation(self, pipeline_app):
        with pytest.raises(SimulationError):
            SimulationConfig(node_failure_rate_per_min=1.0)

    def test_failures_occur_at_configured_rate(self, pipeline_app):
        # 500 req/min × 5 ms keeps each component at ~3 nodes, so the
        # population under churn stays near 9 ready nodes:
        # 9 × 60 min × 5% ≈ 27 expected failures.
        sim = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.05, rate=500.0)
        sim.run()
        assert 12 < sim.nodes_failed_total < 60

    def test_no_failures_when_disabled(self, pipeline_app):
        sim = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.0)
        sim.run()
        assert sim.nodes_failed_total == 0

    def test_manager_replaces_failed_capacity(self, pipeline_app):
        """A reactive manager must hold the cluster near its requirement
        despite continuous node churn."""
        sim = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.05)
        result = sim.run()
        late = result.records[20:]
        mean_ready = sum(
            sum(c.ready_nodes for c in r.components.values()) for r in late
        ) / len(late)
        mean_req = sum(
            sum(c.req_min_nodes for c in r.components.values()) for r in late
        ) / len(late)
        assert mean_ready >= 0.8 * mean_req

    def test_churn_degrades_sla_but_not_catastrophically(self, pipeline_app):
        calm = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.0).run()
        churn = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.05).run()
        assert churn.sla_violation_percent() >= calm.sla_violation_percent()
        assert churn.sla_violation_percent() < 60.0

    def test_failures_are_deterministic_per_seed(self, pipeline_app):
        a = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.05)
        a.run()
        b = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.05)
        b.run()
        assert a.nodes_failed_total == b.nodes_failed_total

    def test_pinned_failure_count_for_seeded_run(self, pipeline_app):
        # Pins the exact seeded outcome so the per-interval probability
        # derivation (p = 1 - (1 - rate) ** INTERVAL_MINUTES, which must
        # equal the raw rate while intervals are one minute) can never
        # drift silently: any change to the conversion, the RNG stream,
        # or the tick length shows up as a different total.
        sim = _sim(pipeline_app, ElasticRMIManager(), failure_rate=0.05, rate=500.0)
        sim.run()
        assert sim.nodes_failed_total == 30

    def test_per_interval_probability_matches_rate_at_unit_interval(self):
        from repro.sim.engine import INTERVAL_MINUTES

        rate = 0.05
        assert INTERVAL_MINUTES == 1.0
        assert 1.0 - (1.0 - rate) ** INTERVAL_MINUTES == pytest.approx(rate)
