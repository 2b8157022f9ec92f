"""Unit tests for the windowed sketch structures."""

import pytest

from repro.errors import ProfilingError
from repro.profiling.sketches import (
    ComponentActivitySummary,
    SpaceSavingTopK,
    TopKPathSummary,
    WindowedCountMinSketch,
)


class TestWindowedCountMinSketch:
    def test_estimate_never_underestimates(self):
        cms = WindowedCountMinSketch(60.0, width=64, depth=4)
        truth = {}
        for i in range(200):
            key = f"path-{i % 37}"
            cms.add(key, 1, float(i % 50))
            truth[key] = truth.get(key, 0) + 1
        for key, true_count in truth.items():
            assert cms.estimate(key) >= true_count

    def test_exact_when_no_collisions(self):
        cms = WindowedCountMinSketch(60.0, width=512, depth=4)
        cms.add("only-key", 5, 1.0)
        assert cms.estimate("only-key") == 5

    def test_window_ages_out(self):
        cms = WindowedCountMinSketch(60.0, width=64, depth=2)
        cms.add("k", 10, 0.0)
        assert cms.estimate("k") == 10
        cms.advance(61.0)  # horizon 1.0 > epoch 0
        assert cms.estimate("k") == 0
        assert cms.total == 0

    def test_horizon_epoch_kept(self):
        cms = WindowedCountMinSketch(60.0, width=64, depth=2)
        cms.add("k", 10, 0.0)
        cms.advance(60.0)  # horizon 0.0; epoch 0 not strictly older
        assert cms.estimate("k") == 10

    def test_estimate_between(self):
        cms = WindowedCountMinSketch(60.0, width=128, depth=4)
        cms.add("k", 3, 5.0)
        cms.add("k", 4, 10.0)
        assert cms.estimate_between("k", 5.0, 5.9) == 3
        assert cms.estimate_between("k", 0.0, 20.0) == 7
        assert cms.estimate_between("k", 6.0, 9.0) == 0

    def test_deterministic_across_instances(self):
        a = WindowedCountMinSketch(60.0, width=64, depth=4)
        b = WindowedCountMinSketch(60.0, width=64, depth=4)
        for i in range(100):
            a.add(f"k{i % 11}", 1, float(i % 30))
            b.add(f"k{i % 11}", 1, float(i % 30))
        for i in range(11):
            assert a.estimate(f"k{i}") == b.estimate(f"k{i}")

    def test_state_round_trip(self):
        cms = WindowedCountMinSketch(60.0, width=64, depth=3)
        for i in range(50):
            cms.add(f"k{i % 7}", 2, float(i))
        restored = WindowedCountMinSketch.from_state(cms.to_state(), 60.0)
        assert restored.total == cms.total
        for i in range(7):
            assert restored.estimate(f"k{i}") == cms.estimate(f"k{i}")

    def test_invalid_geometry(self):
        with pytest.raises(ProfilingError):
            WindowedCountMinSketch(60.0, width=4)
        with pytest.raises(ProfilingError):
            WindowedCountMinSketch(60.0, depth=0)
        with pytest.raises(ProfilingError):
            WindowedCountMinSketch(0.0)


class TestSpaceSavingTopK:
    def test_increment_only_monitored(self):
        ss = SpaceSavingTopK(4, 60.0)
        assert not ss.increment("k", 1, 0.0)
        ss.insert("k", 1, 0, 0.0)
        assert ss.increment("k", 2, 0.0)
        assert ss.get("k").total == 3

    def test_min_entry_deterministic_tiebreak(self):
        ss = SpaceSavingTopK(3, 60.0)
        ss.insert("b", 5, 0, 0.0)
        ss.insert("a", 5, 0, 0.0)
        ss.insert("c", 9, 0, 0.0)
        assert ss.min_entry().key == "a"

    def test_eviction_counts(self):
        ss = SpaceSavingTopK(2, 60.0)
        ss.insert("a", 1, 0, 0.0)
        ss.insert("b", 2, 0, 0.0)
        ss.evict(ss.min_entry().key)
        assert ss.evictions == 1
        assert ss.get("a") is None

    def test_window_pruning_touches_only_expired_epochs(self):
        ss = SpaceSavingTopK(4, 60.0)
        ss.insert("a", 10, 0, 0.0)
        ss.insert("b", 5, 0, 30.0)
        ss.advance(61.0)  # horizon 1: epoch 0 expires, epoch 30 stays
        assert ss.get("a").total == 0
        assert ss.get("b").total == 5

    def test_total_between(self):
        ss = SpaceSavingTopK(4, 60.0)
        ss.insert("a", 3, 0, 5.0)
        ss.increment("a", 4, 20.0)
        entry = ss.get("a")
        assert entry.total_between(0.0, 10.0) == 3
        assert entry.total_between(0.0, 30.0) == 7

    def test_state_round_trip(self):
        ss = SpaceSavingTopK(4, 60.0)
        ss.insert("a", 3, 1, 5.0)
        ss.increment("a", 4, 20.0)
        ss.evictions = 9
        restored = SpaceSavingTopK.from_state(ss.to_state(), 60.0)
        assert restored.evictions == 9
        assert restored.get("a").total == 7
        assert restored.get("a").error == 1
        # Pruning still works on the restored epoch rings.
        restored.advance(70.0)
        assert restored.get("a").total == 4


class TestTopKPathSummary:
    def test_heavy_hitter_is_monitored_exactly(self):
        summary = TopKPathSummary(k=4, window_minutes=60.0)
        for t in range(30):
            summary.record("hot", 10, float(t))
            summary.record(f"cold-{t}", 1, float(t))
        entry = summary.topk.get("hot")
        assert entry is not None
        # 'hot' was admitted on first sight (capacity available) and
        # counted exactly thereafter.
        assert entry.total == 300

    def test_counts_sum_pinned_to_exact_total(self):
        summary = TopKPathSummary(k=2, window_minutes=60.0)
        keys = [f"p{i}" for i in range(20)]
        for t, key in enumerate(keys):
            summary.record(key, 3, float(t % 10))
        out = summary.counts(keys, 10.0)
        assert sum(out.values()) == pytest.approx(summary.sample_total, abs=len(keys))

    def test_promotion_from_tail(self):
        summary = TopKPathSummary(k=2, window_minutes=60.0)
        summary.record("a", 1, 0.0)
        summary.record("b", 1, 0.0)
        for _ in range(50):
            summary.record("c", 1, 0.0)
        assert summary.topk.get("c") is not None
        assert summary.evictions >= 1

    def test_sample_total_between_is_exact(self):
        summary = TopKPathSummary(k=2, window_minutes=60.0)
        summary.record("a", 5, 5.0)
        summary.record("b", 7, 20.0)
        assert summary.sample_total_between(0.0, 10.0) == 5
        assert summary.sample_total_between(0.0, 30.0) == 12

    def test_state_round_trip(self):
        summary = TopKPathSummary(k=3, window_minutes=60.0)
        for t in range(40):
            summary.record(f"p{t % 9}", 1 + t % 3, float(t % 20))
        restored = TopKPathSummary.from_state(summary.to_state(), 60.0)
        assert restored.sample_total == summary.sample_total
        assert restored.evictions == summary.evictions
        keys = [f"p{i}" for i in range(9)]
        assert restored.counts(keys, 20.0) == summary.counts(keys, 20.0)


class TestComponentActivitySummary:
    def test_totals_and_weights(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A", "B"), 3, 0.0)
        summary.record(("B",), 1, 1.0)
        totals = summary.totals(1.0)
        assert totals == {"A": 3, "B": 4}
        weights = summary.weights(1.0)
        assert weights["A"] == pytest.approx(3 / 4)
        assert weights["B"] == pytest.approx(1.0)

    def test_window_ages_out(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A",), 5, 0.0)
        summary.record(("A",), 2, 40.0)
        assert summary.totals(61.0) == {"A": 2}
        assert summary.request_total == 2

    def test_totals_between(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A",), 5, 0.0)
        summary.record(("A", "B"), 2, 40.0)
        assert summary.counts_between((), 0.0, 10.0) == {"A": 5}
        assert summary.sample_total_between(0.0, 50.0) == 7

    def test_state_round_trip(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A", "B"), 3, 5.0)
        summary.record(("B", "C"), 2, 30.0)
        restored = ComponentActivitySummary.from_state(summary.to_state(), 60.0)
        assert restored.totals(30.0) == summary.totals(30.0)
        assert restored.request_total == summary.request_total
        restored.advance(70.0)
        assert restored.totals(70.0) == {"B": 2, "C": 2}
