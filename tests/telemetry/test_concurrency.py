"""Thread-safety stress tests and snapshot-merge tests for telemetry."""

import sys
import threading

import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    MetricsRegistry,
    TelemetryError,
)

THREADS = 8
INCREMENTS = 2_000


def _hammer(registry, barrier):
    barrier.wait()
    counter = registry.counter("stress.counter")
    gauge = registry.gauge("stress.gauge")
    histogram = registry.histogram("stress.histogram", buckets=(1, 10, 100))
    for i in range(INCREMENTS):
        counter.inc()
        gauge.inc(2)
        gauge.dec()
        histogram.observe(i % 150)


class TestThreadSafeRegistry:
    def test_concurrent_mutation_is_exact(self):
        """N threads × M increments must land exactly — no lost updates."""
        registry = MetricsRegistry(thread_safe=True)
        barrier = threading.Barrier(THREADS)
        threads = [
            threading.Thread(target=_hammer, args=(registry, barrier))
            for _ in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("stress.counter").value == THREADS * INCREMENTS
        assert registry.gauge("stress.gauge").value == THREADS * INCREMENTS
        hist = registry.histogram("stress.histogram", buckets=(1, 10, 100))
        assert hist.to_dict()["count"] == THREADS * INCREMENTS

    def test_concurrent_get_or_create_yields_one_instrument(self):
        """Racing get-or-create must converge on a single identity."""
        registry = MetricsRegistry(thread_safe=True)
        barrier = threading.Barrier(THREADS)
        seen = []
        lock = threading.Lock()

        def create():
            barrier.wait()
            counter = registry.counter("race.counter")
            counter.inc()
            with lock:
                seen.append(counter)

        threads = [threading.Thread(target=create) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1
        assert registry.counter("race.counter").value == THREADS

    def test_histogram_merge_and_accumulate_do_not_self_deadlock(self):
        """Both mutators are bound behind one non-reentrant lock: if either
        called the other through ``self`` it would block forever."""
        hist = MetricsRegistry(thread_safe=True).histogram("h", buckets=(1, 10))
        assert {"merge", "accumulate"} <= set(vars(hist))  # both are locked

        def both():
            hist.observe(5)
            hist.merge(hist.to_dict())
            hist.accumulate(1, 5.0, (0, 1, 0), 5.0, 5.0, times=3)

        worker = threading.Thread(target=both, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert hist.count == 5 and hist.sum == 25.0

    def test_concurrent_accumulates_lose_no_count(self):
        hist = MetricsRegistry(thread_safe=True).histogram("h", buckets=(1, 10))
        barrier = threading.Barrier(THREADS)

        def accumulate():
            barrier.wait()
            for _ in range(1_000):
                hist.accumulate(2, 12.0, (1, 0, 1), 1.0, 11.0, times=3)

        threads = [threading.Thread(target=accumulate, daemon=True) for _ in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert hist.count == THREADS * 1_000 * 6
        assert hist.sum == THREADS * 1_000 * 36.0
        assert hist.bucket_counts == (THREADS * 3_000, 0, THREADS * 3_000)

    def test_unlocked_registry_stays_lock_free(self):
        """The default registry must not pay for locks it didn't ask for."""
        registry = MetricsRegistry()
        counter = registry.counter("plain")
        assert "inc" not in vars(counter)  # no bound-method shadowing
        locked = MetricsRegistry(thread_safe=True).counter("locked")
        assert "inc" in vars(locked)


class TestMergeSnapshot:
    def test_counters_and_gauges_add(self):
        worker = MetricsRegistry()
        worker.counter("paths").inc(7)
        worker.gauge("depth").set(3)
        parent = MetricsRegistry()
        parent.counter("paths").inc(5)
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("paths").value == 19
        assert parent.gauge("depth").value == 6

    def test_labels_survive_the_merge(self):
        worker = MetricsRegistry()
        worker.counter("paths", labels={"manager": "dca"}).inc(2)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("paths", labels={"manager": "dca"}).value == 2

    def test_histograms_merge_bucket_by_bucket(self):
        bounds = (1, 5, 10)
        worker_a = MetricsRegistry()
        worker_b = MetricsRegistry()
        for v in (0.5, 3, 7):
            worker_a.histogram("size", buckets=bounds).observe(v)
        for v in (2, 20):
            worker_b.histogram("size", buckets=bounds).observe(v)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker_a.snapshot())
        parent.merge_snapshot(worker_b.snapshot())
        merged = parent.histogram("size", buckets=bounds).to_dict()
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(32.5)
        assert merged["min"] == 0.5
        assert merged["max"] == 20
        assert merged["buckets"]["1.0"] == 1  # 0.5
        assert merged["buckets"]["5.0"] == 2  # 3, 2
        assert merged["buckets"]["10.0"] == 1  # 7
        assert merged["buckets"]["+Inf"] == 1  # 20 (overflow)

    def test_histogram_bucket_mismatch_rejected(self):
        worker = MetricsRegistry()
        worker.histogram("size", buckets=(1, 5)).observe(3)
        parent = MetricsRegistry()
        parent.histogram("size", buckets=(1, 5, 10)).observe(3)
        with pytest.raises(TelemetryError):
            parent.merge_snapshot(worker.snapshot())

    def test_schema_mismatch_rejected(self):
        parent = MetricsRegistry()
        with pytest.raises(TelemetryError):
            parent.merge_snapshot({"schema": SCHEMA_VERSION + 1, "metrics": {}})

    def test_unknown_kind_rejected(self):
        parent = MetricsRegistry()
        bad = {
            "schema": SCHEMA_VERSION,
            "metrics": {"x": {"type": "summary", "value": 1}},
        }
        with pytest.raises(TelemetryError):
            parent.merge_snapshot(bad)

    def test_merge_into_thread_safe_registry(self):
        worker = MetricsRegistry()
        worker.counter("paths").inc(4)
        parent = MetricsRegistry(thread_safe=True)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("paths").value == 4
