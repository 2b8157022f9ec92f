"""Unit tests for the provisioning state machine."""

import pytest

from repro.errors import SimulationError
from repro.sim.cluster import Cluster, ComponentGroup, DeploymentSpec


class TestDeploymentSpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            DeploymentSpec(min_nodes=0)
        with pytest.raises(SimulationError):
            DeploymentSpec(initial_nodes=0, min_nodes=1)
        with pytest.raises(SimulationError):
            DeploymentSpec(initial_nodes=600, max_nodes=500)
        with pytest.raises(SimulationError):
            DeploymentSpec(serial_limit=0)


class TestComponentGroup:
    def _group(self, **kwargs):
        return ComponentGroup("x", DeploymentSpec(**kwargs))

    def test_scale_up_goes_pending_then_ready(self):
        g = self._group(initial_nodes=5)
        g.apply_target(8, now_minutes=0.0)
        assert g.ready == 5
        assert g.pending == 3
        g.advance(1.0)
        assert g.ready == 5
        g.advance(2.0)
        assert g.ready == 8
        assert g.pending == 0

    def test_scale_down_drains(self):
        g = self._group(initial_nodes=8)
        g.apply_target(5, 0.0)
        assert g.ready == 5
        assert g.draining == 3
        assert g.provisioned == 8  # still paying for draining nodes
        g.advance(1.0)
        assert g.draining == 0
        assert g.provisioned == 5

    def test_scale_down_cancels_pending_first(self):
        g = self._group(initial_nodes=5)
        g.apply_target(10, 0.0)
        assert g.pending == 5
        g.apply_target(7, 0.5)
        assert g.pending == 2
        assert g.ready == 5  # no ready node was drained

    def test_min_nodes_respected(self):
        g = self._group(initial_nodes=3, min_nodes=2)
        g.apply_target(0, 0.0)
        assert g.ready >= 2

    def test_max_nodes_respected(self):
        g = self._group(initial_nodes=3, max_nodes=5)
        g.apply_target(100, 0.0)
        assert g.ready + g.pending == 5

    def test_serial_limit_caps_effective_nodes(self):
        g = self._group(initial_nodes=10, serial_limit=3)
        assert g.effective_nodes() == 3
        assert g.provisioned == 10

    def test_no_serial_limit(self):
        g = self._group(initial_nodes=10)
        assert g.effective_nodes() == 10

    def test_idempotent_target(self):
        g = self._group(initial_nodes=5)
        g.apply_target(5, 0.0)
        assert g.pending == 0
        assert g.draining == 0


class TestCluster:
    def test_requires_deployments(self):
        with pytest.raises(SimulationError):
            Cluster({})

    def test_unknown_target_rejected(self):
        cluster = Cluster({"a": DeploymentSpec()})
        with pytest.raises(SimulationError):
            cluster.apply_targets({"ghost": 5}, 0.0)

    def test_advance_applies_to_all_groups(self):
        cluster = Cluster(
            {"a": DeploymentSpec(initial_nodes=2), "b": DeploymentSpec(initial_nodes=2)},
        )
        cluster.apply_targets({"a": 4, "b": 5}, 0.0)
        cluster.advance(2.0)
        assert cluster.group("a").ready == 4
        assert cluster.group("b").ready == 5

    def test_unknown_group_lookup(self):
        cluster = Cluster({"a": DeploymentSpec()})
        with pytest.raises(SimulationError):
            cluster.group("zzz")
