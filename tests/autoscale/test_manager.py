"""Unit tests for the manager interface primitives."""

import pytest

from repro.autoscale.manager import (
    ClusterObservation,
    ComponentObservation,
    ScalingDecision,
    clamp_targets,
)
from repro.core.regression import MachineSpec
from repro.errors import ElasticityError


class TestScalingDecision:
    def test_negative_target_rejected(self):
        with pytest.raises(ElasticityError):
            ScalingDecision(targets={"a": -1})

    def test_negative_infra_rejected(self):
        with pytest.raises(ElasticityError):
            ScalingDecision(targets={}, infrastructure_nodes=-1)

    def test_valid_decision(self):
        d = ScalingDecision(targets={"a": 3}, infrastructure_nodes=1)
        assert d.targets["a"] == 3


class TestClampTargets:
    def test_clamps_both_ends(self):
        out = clamp_targets({"a": 0, "b": 20_000})
        assert out == {"a": 1, "b": 10_000}

    def test_identity_within_range(self):
        assert clamp_targets({"a": 7}) == {"a": 7}


class TestClusterObservation:
    def test_total_nodes_includes_pending(self):
        obs = ClusterObservation(
            time_minutes=0.0,
            external_arrivals_per_min=10.0,
            components={
                "a": ComponentObservation(component="a", nodes=3, pending_nodes=2),
                "b": ComponentObservation(component="b", nodes=4),
            },
            machine=MachineSpec(),
            sla_latency_ms=100.0,
        )
        assert obs.total_nodes() == 9
