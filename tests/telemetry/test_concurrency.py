"""Snapshot-merge tests: how per-worker registries fold together."""

import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    MetricsRegistry,
    TelemetryError,
)


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
        """Merging into a registry that lacks the instrument creates it."""
        worker = MetricsRegistry()
        worker.counter("paths").inc(4)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("paths").value == 4
