"""Mergeable-sketch property tests (the parallel runner's foundation).

The parallel experiment runner splits one record stream over N workers,
each feeding its own sketch, and merges the per-worker summaries on the
way back.  These tests pin the contract that makes that sound:

* count-min merge is *exact* (linearity — cell-wise table addition of
  same-geometry sketches equals the sketch of the concatenated stream);
* the merged ``topk`` tier stays within the documented
  :data:`~repro.profiling.sketches.HOT_PATH_PROBABILITY_EPSILON` of
  both the single-sketch run and the exact ground truth, across 25
  seeds of Zipf and flash-crowd traffic;
* :meth:`~repro.profiling.profiler.CausalPathProfiler.merge` composes
  in every precision mode (exact buckets bit-identical to a serial
  union) and refuses mismatched modes/windows/geometry.
"""

import random

import pytest

from repro.core.paths import PathSignature
from repro.errors import ProfilingError
from repro.profiling.profiler import CausalPathProfiler
from repro.profiling.sketches import (
    HOT_PATH_PROBABILITY_EPSILON,
    ComponentActivitySummary,
    SpaceSavingTopK,
    TopKPathSummary,
    WindowedCountMinSketch,
)
from repro.telemetry import MetricsRegistry
from repro.workloads.patterns import zipf_weights

SEEDS = range(25)
WINDOW = 60.0
NUM_KEYS = 300
NUM_WORKERS = 4
STREAM_LEN = 8000


def _keys():
    return [f"path-{i:03d}" for i in range(NUM_KEYS)]


def _zipf_stream(seed):
    """(key, time) pairs with Zipf-distributed keys over 120 minutes."""
    rng = random.Random(seed)
    keys = _keys()
    weights = zipf_weights(keys, exponent=1.1)
    population = list(weights)
    cum_weights = []
    acc = 0.0
    for key in population:
        acc += weights[key]
        cum_weights.append(acc)
    times = sorted(rng.uniform(0.0, 120.0) for _ in range(STREAM_LEN))
    picks = rng.choices(population, cum_weights=cum_weights, k=STREAM_LEN)
    return list(zip(picks, times))


def _flash_crowd_stream(seed):
    """Zipf background with one tail key taking 75% of mid-run traffic."""
    rng = random.Random(seed)
    keys = _keys()
    hot = keys[-1]  # coldest background key becomes the crowd target
    weights = zipf_weights(keys, exponent=1.1)
    population = list(weights)
    weight_list = [weights[k] for k in population]
    stream = []
    times = sorted(rng.uniform(0.0, 120.0) for _ in range(STREAM_LEN))
    for t in times:
        if 60.0 <= t < 90.0 and rng.random() < 0.75:
            stream.append((hot, t))
        else:
            stream.append((rng.choices(population, weights=weight_list, k=1)[0], t))
    return stream


def _partition(stream, workers):
    """Round-robin split (what a per-worker fan-out of one stream sees)."""
    parts = [[] for _ in range(workers)]
    for i, item in enumerate(stream):
        parts[i % workers].append(item)
    return parts


def _exact_window_counts(stream, now):
    horizon = now - WINDOW
    counts = {}
    for key, t in stream:
        if horizon <= int(t) <= now:
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestCountMinMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_is_exact_by_linearity(self, seed):
        stream = _zipf_stream(seed)
        single = WindowedCountMinSketch(WINDOW)
        parts = [WindowedCountMinSketch(WINDOW) for _ in range(NUM_WORKERS)]
        for worker, part in enumerate(_partition(stream, NUM_WORKERS)):
            for key, t in part:
                parts[worker].add(key, 1, t)
        for key, t in stream:
            single.add(key, 1, t)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        now = stream[-1][1]
        merged.advance(now)
        single.advance(now)
        assert merged.ring.totals == single.ring.totals
        assert merged.total == single.total
        for key in _keys():
            assert merged.estimate(key) == single.estimate(key)

    def test_merge_preserves_window_expiry(self):
        a = WindowedCountMinSketch(WINDOW)
        b = WindowedCountMinSketch(WINDOW)
        a.add("new", 5, 100.0)
        b.add("old", 3, 10.0)  # far outside the window at minute 100
        a.merge(b)
        a.advance(100.0)
        assert a.estimate("old") == 0
        assert a.estimate("new") >= 5

    def test_geometry_mismatch_refused(self):
        a = WindowedCountMinSketch(WINDOW, width=512, depth=4)
        b = WindowedCountMinSketch(WINDOW, width=256, depth=4)
        with pytest.raises(ProfilingError):
            a.merge(b)
        c = WindowedCountMinSketch(30.0, width=512, depth=4)
        with pytest.raises(ProfilingError):
            a.merge(c)


class TestTopKMerge:
    def test_union_reevicts_to_k_deterministically(self):
        a = SpaceSavingTopK(2, WINDOW)
        b = SpaceSavingTopK(2, WINDOW)
        a.insert("x", 10, 0, 50.0)
        a.insert("y", 5, 0, 50.0)
        b.insert("x", 7, 0, 50.0)
        b.insert("z", 6, 0, 50.0)
        a.merge(b)
        assert len(a) == 2
        assert a.get("x").total == 17
        # y(5, +floor err) loses to z(6): deterministic (total, key) evict
        assert a.get("z") is not None and a.get("y") is None

    def test_absent_side_floor_lands_in_error_not_total(self):
        a = SpaceSavingTopK(2, WINDOW)
        b = SpaceSavingTopK(2, WINDOW)
        a.insert("x", 10, 0, 50.0)
        a.insert("y", 9, 0, 50.0)  # a is full; floor = 9
        b.insert("z", 20, 0, 50.0)
        a.merge(b)
        z = a.get("z")
        assert z.total == 20  # no phantom mass in the epoch rings
        assert z.error == 9  # but the absent side's floor bounds the miss

    def test_absent_underfull_side_is_exact(self):
        a = SpaceSavingTopK(8, WINDOW)
        b = SpaceSavingTopK(8, WINDOW)
        a.insert("x", 10, 0, 50.0)
        b.insert("z", 20, 0, 50.0)
        a.merge(b)
        assert a.get("z").error == 0 and a.get("x").error == 0

    def test_k_mismatch_refused(self):
        with pytest.raises(ProfilingError):
            SpaceSavingTopK(4, WINDOW).merge(SpaceSavingTopK(8, WINDOW))


class TestTopKPathSummaryMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_zipf_merged_matches_single_within_epsilon(self, seed):
        self._check_stream(_zipf_stream(seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flash_crowd_merged_matches_single_within_epsilon(self, seed):
        self._check_stream(_flash_crowd_stream(seed))

    def _check_stream(self, stream):
        single = TopKPathSummary(k=128, window_minutes=WINDOW)
        parts = [
            TopKPathSummary(k=128, window_minutes=WINDOW) for _ in range(NUM_WORKERS)
        ]
        for worker, part in enumerate(_partition(stream, NUM_WORKERS)):
            for key, t in part:
                parts[worker].record(key, 1, t)
        for key, t in stream:
            single.record(key, 1, t)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        now = stream[-1][1]
        keys = _keys()
        merged_counts = merged.counts(keys, now)
        single_counts = single.counts(keys, now)
        exact = _exact_window_counts(stream, now)
        # The exact scalar denominator merges exactly.
        assert merged.sample_total == single.sample_total == sum(exact.values())
        total = max(1, merged.sample_total)
        for key in keys:
            p_merged = merged_counts[key] / total
            p_single = single_counts[key] / total
            p_exact = exact.get(key, 0) / total
            assert abs(p_merged - p_single) <= HOT_PATH_PROBABILITY_EPSILON
            assert abs(p_merged - p_exact) <= HOT_PATH_PROBABILITY_EPSILON

    def test_window_mismatch_refused(self):
        a = TopKPathSummary(k=8, window_minutes=60.0)
        b = TopKPathSummary(k=8, window_minutes=30.0)
        with pytest.raises(ProfilingError):
            a.merge(b)


def _signatures():
    return {
        f"req{i}": [
            PathSignature(f"req{i}", (("fe", "m1", "svc"), ("svc", f"m{i}", "db")))
        ]
        for i in range(6)
    }


def _record_partitioned(profilers, sigs, seed):
    rng = random.Random(seed)
    names = sorted(sigs)
    for j in range(600):
        name = names[rng.randrange(len(names)) if rng.random() < 0.3 else 0]
        profilers[j % len(profilers)].record(sigs[name][0], 10.0 + j * 0.1)


class TestProfilerMerge:
    @pytest.mark.parametrize("mode", ["exact", "topk", "component"])
    def test_merge_equals_serial_union(self, mode):
        sigs = _signatures()
        serial = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode=mode)
        workers = [
            CausalPathProfiler(sigs, registry=MetricsRegistry(), mode=mode)
            for _ in range(3)
        ]
        _record_partitioned([serial], sigs, seed=5)
        _record_partitioned(workers, sigs, seed=5)
        base = workers[0]
        base.merge(workers[1])
        base.merge(workers[2])
        assert base.counts(75.0) == serial.counts(75.0)
        assert base.sample_total_between(10.0, 75.0) == serial.sample_total_between(
            10.0, 75.0
        )

    def test_exact_merge_unions_dynamic_paths(self):
        sigs = _signatures()
        a = CausalPathProfiler(sigs, registry=MetricsRegistry())
        b = CausalPathProfiler(sigs, registry=MetricsRegistry())
        novel = PathSignature("req0", (("fe", "mx", "svc"),))
        b.record(novel, 20.0)
        a.merge(b)
        assert novel.path_id in a.known_paths()
        assert a.counts(30.0)[novel.path_id] == 1
        assert a.dynamic_registrations == 1

    def test_merge_carries_last_record_minutes(self):
        sigs = _signatures()
        a = CausalPathProfiler(sigs, registry=MetricsRegistry())
        b = CausalPathProfiler(sigs, registry=MetricsRegistry())
        a.record(sigs["req0"][0], 12.0)
        b.record(sigs["req1"][0], 44.0)
        a.merge(b)
        assert a.last_record_minutes == 44.0

    def test_mode_mismatch_refused(self):
        sigs = _signatures()
        a = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode="exact")
        b = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode="topk")
        with pytest.raises(ProfilingError):
            a.merge(b)

    def test_topk_k_mismatch_refused(self):
        sigs = _signatures()
        a = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode="topk", topk=64)
        b = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode="topk", topk=128)
        with pytest.raises(ProfilingError):
            a.merge(b)

    def test_component_merge_is_exact(self):
        sigs = _signatures()
        serial = ComponentActivitySummary(WINDOW)
        parts = [ComponentActivitySummary(WINDOW) for _ in range(2)]
        events = [(("fe", "svc"), 30.0), (("svc", "db"), 40.0), (("fe", "db"), 50.0)]
        for i, (comps, t) in enumerate(events):
            serial.record(comps, 2, t)
            parts[i % 2].record(comps, 2, t)
        parts[0].merge(parts[1])
        assert parts[0].totals(55.0) == serial.totals(55.0)
        assert parts[0].request_total == serial.request_total
