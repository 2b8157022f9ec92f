"""Tests for selective shard-level scaling (Section II-A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.shards import (
    ShardProfile,
    selective_shard_allocation,
    shard_allocation_agility,
    shard_weights,
    uniform_shard_allocation,
)
from repro.errors import ElasticityError
from repro.sim.replicas import ReplicaSpec, ReplicatedApplicationRuntime
from repro.workloads.generator import RequestClass


class TestShardProfile:
    def _trace(self, pipeline_app, x):
        runtime = ReplicatedApplicationRuntime(
            pipeline_app, {"B": ReplicaSpec(count=4, routing_field="v")}
        )
        return runtime.execute_request(RequestClass("go", "start", {"x": x}))

    def test_observe_accumulates(self, pipeline_app):
        profile = ShardProfile()
        profile.observe(self._trace(pipeline_app, 1))
        for _ in range(3):
            profile.observe(self._trace(pipeline_app, 2))
        assert profile.requests_observed == 4
        assert sum(profile.counts["B"]) == 4

    def test_shard_count_mismatch_rejected(self, pipeline_app):
        profile = ShardProfile()
        profile.observe(self._trace(pipeline_app, 1))
        other_runtime = ReplicatedApplicationRuntime(
            pipeline_app, {"B": ReplicaSpec(count=2, routing_field="v")}
        )
        other = other_runtime.execute_request(RequestClass("go", "start", {"x": 1}))
        with pytest.raises(ElasticityError, match="shard count changed"):
            profile.observe(other)


class TestShardWeights:
    def test_weights_normalised(self):
        profile = ShardProfile(counts={"q": [30, 10, 0, 0]})
        assert shard_weights(profile, "q") == [0.75, 0.25, 0.0, 0.0]

    def test_cold_start_uniform(self):
        profile = ShardProfile(counts={"q": [0, 0]})
        assert shard_weights(profile, "q") == [0.5, 0.5]

    def test_unknown_component(self):
        with pytest.raises(ElasticityError):
            shard_weights(ShardProfile(), "ghost")


class TestAllocation:
    def test_selective_follows_weights(self):
        alloc = selective_shard_allocation(10, [0.7, 0.2, 0.1])
        assert sum(alloc) == 10
        assert alloc[0] > alloc[1] >= alloc[2] >= 1
        assert alloc[0] >= 6  # the 0.7-weight shard takes the lion's share

    def test_uniform_is_even(self):
        assert uniform_shard_allocation(8, 4) == [2, 2, 2, 2]

    def test_minimum_per_shard(self):
        alloc = selective_shard_allocation(4, [1.0, 0.0, 0.0, 0.0])
        assert min(alloc) >= 1

    def test_zero_weights_degrade_to_uniform(self):
        assert selective_shard_allocation(6, [0.0, 0.0, 0.0]) == [2, 2, 2]

    def test_validation(self):
        with pytest.raises(ElasticityError):
            selective_shard_allocation(-1, [1.0])
        with pytest.raises(ElasticityError):
            selective_shard_allocation(5, [])
        with pytest.raises(ElasticityError):
            selective_shard_allocation(5, [-0.5, 1.0])

    @given(
        st.integers(0, 100),
        st.lists(st.floats(0, 10), min_size=1, max_size=12),
    )
    @settings(max_examples=150)
    def test_total_preserved(self, total, weights):
        alloc = selective_shard_allocation(total, weights)
        assert sum(alloc) == max(total, len(weights))
        assert all(a >= 1 for a in alloc)


class TestSelectiveBeatsUniform:
    def test_hot_shard_workload(self):
        """The paper's hurricane scenario: 80% of traffic on one shard.

        With the same budget, uniform scaling starves the hot shard and
        idles the cold ones; selective scaling matches demand."""
        demand = [8_000.0, 600.0, 600.0, 800.0]  # ms/min per shard
        capacity = 1_000.0
        budget = 14
        weights = [d / sum(demand) for d in demand]
        selective = selective_shard_allocation(budget, weights)
        uniform = uniform_shard_allocation(budget, 4)
        sel_excess, sel_short = shard_allocation_agility(selective, demand, capacity)
        uni_excess, uni_short = shard_allocation_agility(uniform, demand, capacity)
        assert sel_short < uni_short
        assert sel_excess + sel_short < uni_excess + uni_short

    def test_uniform_demand_makes_them_equal(self):
        demand = [1_000.0] * 4
        weights = [0.25] * 4
        selective = selective_shard_allocation(8, weights)
        uniform = uniform_shard_allocation(8, 4)
        assert selective == uniform

    def test_agility_validation(self):
        with pytest.raises(ElasticityError):
            shard_allocation_agility([1], [100.0], node_capacity=0)


class TestEndToEndShardProfile:
    def test_hot_term_search_profile_drives_selective_allocation(self, search_app):
        """Universal search with one hot term: the traced shard profile
        concentrates, and the resulting allocation gives the hot shard
        strictly more nodes than the uniform split would."""
        from repro.apps.universal_search import WEB_SHARDS

        runtime = ReplicatedApplicationRuntime(
            search_app,
            {"query-index": ReplicaSpec(count=WEB_SHARDS, routing_field="shard")},
        )
        profile = ShardProfile()
        hot = RequestClass("hot", "search", {"kind": "news", "terms": "hurricane"})
        for _ in range(40):
            profile.observe(runtime.execute_request(hot))
        weights = shard_weights(profile, "query-index")
        alloc = selective_shard_allocation(2 * WEB_SHARDS, weights)
        uniform = uniform_shard_allocation(2 * WEB_SHARDS, WEB_SHARDS)
        # News search scans 3 shard slots (0..2): they get all the traffic.
        hot_nodes = sum(a for a, w in zip(alloc, weights) if w > 0)
        hot_uniform = sum(u for u, w in zip(uniform, weights) if w > 0)
        assert hot_nodes > hot_uniform
