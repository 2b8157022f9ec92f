"""Tests for replica-level routing (hot shards, per-replica state)."""

import pytest

from repro.errors import SimulationError
from repro.sim.replicas import ReplicaSpec, ReplicatedApplicationRuntime
from repro.workloads.generator import RequestClass


def _runtime(pipeline_app, b_replicas=4, routing_field=None):
    specs = {"B": ReplicaSpec(count=b_replicas, routing_field=routing_field)}
    return ReplicatedApplicationRuntime(pipeline_app, specs)


class TestSpecs:
    def test_count_validation(self):
        with pytest.raises(SimulationError):
            ReplicaSpec(count=0)

    def test_unknown_component_rejected(self, pipeline_app):
        with pytest.raises(SimulationError, match="unknown components"):
            ReplicatedApplicationRuntime(pipeline_app, {"ghost": ReplicaSpec()})


class TestRoundRobin:
    def test_spreads_messages_evenly(self, pipeline_app):
        runtime = _runtime(pipeline_app, b_replicas=4)
        totals = [0, 0, 0, 0]
        for i in range(40):
            trace = runtime.execute_request(RequestClass("go", "start", {"x": i}))
            for idx, c in enumerate(trace.replica_messages["B"]):
                totals[idx] += c
        assert totals == [10, 10, 10, 10]

    def test_rr_cursor_cycles(self, pipeline_app):
        runtime = _runtime(pipeline_app, b_replicas=3)
        picks = [
            runtime.execute_request(
                RequestClass("go", "start", {"x": i})
            ).replica_messages["B"].index(1)
            for i in range(6)
        ]
        assert picks == [0, 1, 2, 0, 1, 2]


class TestHashRouting:
    def test_same_key_same_replica(self, pipeline_app):
        runtime = _runtime(pipeline_app, b_replicas=8, routing_field="v")
        # A forwards field v = acc; with a fresh runtime per request the
        # key is deterministic. Use identical payloads → identical replica.
        t1 = runtime.execute_request(RequestClass("go", "start", {"x": 0}))
        t2 = runtime.execute_request(RequestClass("go", "start", {"x": 0}))
        assert t1.replica_messages["B"] == t2.replica_messages["B"]

    def test_hot_key_concentrates_load(self, pipeline_app):
        """Section II-A: spikes on one key land on one shard."""
        runtime = _runtime(pipeline_app, b_replicas=8, routing_field="v")
        counts = [0] * 8
        for _ in range(50):
            trace = runtime.execute_request(RequestClass("go", "start", {"x": 0}))
            for idx, c in enumerate(trace.replica_messages["B"]):
                counts[idx] += c
        # x=0 keeps A's accumulator at 0, so every request carries the same
        # key and the same shard receives all 50 messages.
        assert max(counts) == 50
        assert sum(1 for c in counts if c > 0) == 1

    def test_diverse_keys_spread_load(self, pipeline_app):
        runtime = _runtime(pipeline_app, b_replicas=8, routing_field="v")
        counts = [0] * 8
        for i in range(200):
            trace = runtime.execute_request(RequestClass("go", "start", {"x": i + 1}))
            for idx, c in enumerate(trace.replica_messages["B"]):
                counts[idx] += c
        assert sum(1 for c in counts if c > 0) >= 5  # most shards hit

    def test_missing_routing_field_rejected(self, pipeline_app):
        specs = {"A": ReplicaSpec(count=2, routing_field="nope")}
        runtime = ReplicatedApplicationRuntime(pipeline_app, specs)
        with pytest.raises(SimulationError, match="routing"):
            runtime.execute_request(RequestClass("go", "start", {"x": 1}))


class TestPerReplicaState:
    def test_state_isolated_between_replicas(self, pipeline_app):
        runtime = _runtime(pipeline_app, b_replicas=2)
        runtime.execute_request(RequestClass("go", "start", {"x": 5}))
        runtime.execute_request(RequestClass("go", "start", {"x": 7}))
        # Round-robin: replica 0 saw acc=5, replica 1 saw acc=12.
        assert runtime.replica_state("B", 0).values["last"] == 5
        assert runtime.replica_state("B", 1).values["last"] == 12

    def test_unknown_replica_lookup(self, pipeline_app):
        runtime = _runtime(pipeline_app)
        with pytest.raises(SimulationError):
            runtime.replica_state("B", 99)

    def test_responses_counted(self, pipeline_app):
        runtime = _runtime(pipeline_app)
        trace = runtime.execute_request(RequestClass("go", "start", {"x": 1}))
        assert trace.responses == 1
