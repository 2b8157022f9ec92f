"""Unit tests for the dependency-free telemetry registry."""

import json
import random

import pytest

from repro.errors import ReproError
from repro.telemetry import (
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
    get_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("requests")
        with pytest.raises(TelemetryError):
            c.inc(-1)

    def test_telemetry_error_is_repro_error(self):
        assert issubclass(TelemetryError, ReproError)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5


class TestHistogram:
    def test_counts_and_summary_stats(self):
        h = MetricsRegistry().histogram("size", buckets=(1, 5, 10))
        for v in (0.5, 3, 7, 20):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(30.5)
        assert d["min"] == 0.5
        assert d["max"] == 20

    def test_percentile_reports_bucket_upper_bound(self):
        h = MetricsRegistry().histogram("size", buckets=(1, 5, 10))
        for _ in range(99):
            h.observe(0.5)
        h.observe(7)
        assert h.percentile(0.5) == 1
        assert h.percentile(0.99) == 1
        # p100 is clamped to the observed max, not promoted to the bound
        # of the bucket the max landed in.
        assert h.percentile(1.0) == 7

    def test_percentile_clamps_to_observed_range(self):
        # All samples land above the first bucket: p0 must be the
        # observed min (the old code returned the first bucket's bound,
        # 1.0, because rank 0 was satisfied by the empty first bucket),
        # and mid-quantiles must not exceed the observed max even though
        # their bucket's upper bound (100) does.
        h = MetricsRegistry().histogram("size", buckets=(1, 10, 100))
        for v in (50, 60, 70):
            h.observe(v)
        assert h.percentile(0.0) == 50
        assert h.percentile(0.5) == 70
        assert h.percentile(1.0) == 70

    def test_percentile_single_bucket(self):
        h = MetricsRegistry().histogram("size", buckets=(10,))
        for v in (2, 4):
            h.observe(v)
        assert h.percentile(0.0) == 2
        assert h.percentile(0.5) == 4  # bound 10 clamped to max
        assert h.percentile(1.0) == 4

    def test_percentile_overflow_bucket_is_observed_max(self):
        h = MetricsRegistry().histogram("size", buckets=(1,))
        for v in (5, 9):
            h.observe(v)
        assert h.percentile(1.0) == 9
        assert h.percentile(0.9) == 9

    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("size", buckets=(1, 5))
        d = h.to_dict()
        assert d["count"] == 0
        assert h.percentile(0.0) == 0.0
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 0.0


BOUNDS = (1, 2, 4, 8, 16)


def _observed(values, name="delta"):
    h = Histogram(name, buckets=BOUNDS)
    for v in values:
        h.observe(v)
    return h


def _typed(h):
    d = h.to_dict()
    return d["count"], d["sum"], h.bucket_counts, d["min"], d["max"]


class TestHistogramAccumulate:
    """``merge`` is parse + validate + accumulate; replay calls the
    accumulate step directly, scaled.  For integral observations one
    accumulate scaled by ``k`` must equal ``k`` successive merges."""

    # Integer streams that between them hit the first bucket, an interior
    # bucket, the last bound exactly, and the overflow bucket.
    STREAMS = [
        [1],
        [3, 3, 4],
        [16],
        [17, 40],
        [random.Random(5).randint(0, 40) for _ in range(25)] + [1, 3, 16, 17],
    ]
    # Pre-fills whose extremes lie outside, inside, and astride the delta's.
    PREFILLS = [[], [0, 100], [5, 6], [0, 5], [6, 100]]

    @pytest.mark.parametrize("k", [1, 7, 16])
    @pytest.mark.parametrize("prefill", PREFILLS)
    @pytest.mark.parametrize("stream", STREAMS)
    def test_scaled_accumulate_equals_sequential_merges(self, stream, prefill, k):
        delta = _observed(stream)
        merged, scaled = _observed(prefill, "h"), _observed(prefill, "h")
        for _ in range(k):
            merged.merge(delta.to_dict())
        scaled.accumulate(*_typed(delta), times=k)
        assert scaled.to_dict() == merged.to_dict()
        assert merged.count == len(prefill) + k * len(stream)

    def test_unscaled_accumulate_equals_merge_for_fractional_sums(self):
        delta = _observed([0.25, 3.5, 16.125])
        merged, accumulated = _observed([0.1], "h"), _observed([0.1], "h")
        merged.merge(delta.to_dict())
        accumulated.accumulate(*_typed(delta))
        assert accumulated.to_dict() == merged.to_dict()

    def test_empty_delta_leaves_extremes_alone(self):
        h = _observed([3, 9], "h")
        before = h.to_dict()
        h.merge(_observed([]).to_dict())
        h.accumulate(0, 0.0, (0,) * (len(BOUNDS) + 1), None, None, times=16)
        assert h.to_dict() == before

    def test_merge_still_rejects_mismatched_bounds(self):
        h = _observed([3], "h")
        other = Histogram("delta", buckets=(1, 2, 4, 8))
        other.observe(3)
        with pytest.raises(TelemetryError, match="mismatched buckets"):
            h.merge(other.to_dict())
        assert h.to_dict() == _observed([3], "h").to_dict()  # untouched

    def test_merge_snapshot_round_trips_a_registry(self):
        source = MetricsRegistry()
        source.counter("c", {"k": "v"}).inc(3)
        source.gauge("g").set(2.5)
        hist = source.histogram("h", buckets=BOUNDS)
        for v in (0, 3, 16, 40, 0.5):
            hist.observe(v)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot() == source.snapshot()
        target.merge_snapshot(source.snapshot())
        assert target.histogram("h", buckets=BOUNDS).bucket_counts == tuple(
            2 * c for c in hist.bucket_counts
        )


class TestTimer:
    def test_timer_observes_into_histogram(self):
        reg = MetricsRegistry()
        t = reg.timer("op_seconds")
        with t:
            pass
        with t:
            pass
        hist = reg.get("op_seconds")
        assert hist.to_dict()["count"] == 2
        assert hist.to_dict()["sum"] >= 0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TelemetryError):
            reg.gauge("a")

    def test_labels_produce_distinct_sorted_keys(self):
        reg = MetricsRegistry()
        c1 = reg.counter("hits", labels={"b": "2", "a": "1"})
        c2 = reg.counter("hits", labels={"a": "1", "b": "2"})
        c3 = reg.counter("hits", labels={"a": "other"})
        assert c1 is c2
        assert c1 is not c3
        assert c1.key == 'hits{a=1,b=2}'

    def test_snapshot_schema(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("b").set(1.5)
        snap = reg.snapshot()
        assert snap["schema"] == SCHEMA_VERSION
        assert snap["metrics"]["a"]["value"] == 3
        assert snap["metrics"]["b"]["value"] == 1.5

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        payload = json.loads(reg.to_json())
        assert payload["schema"] == SCHEMA_VERSION
        assert "a" in payload["metrics"]

    def test_reset_zeroes_but_keeps_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(7)
        reg.reset()
        assert c.value == 0
        assert reg.counter("a") is c

    def test_clear_forgets_metrics(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.clear()
        assert reg.get("a") is None

    def test_iteration_and_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert sorted(m.key for m in reg) == ["a", "b"]
        assert set(reg.names()) == {"a", "b"}

    def test_default_registry_is_singleton(self):
        assert get_registry() is get_registry()
        assert isinstance(get_registry().counter("test.singleton"), Counter)

    def test_metric_types_exported(self):
        reg = MetricsRegistry()
        assert isinstance(reg.gauge("g"), Gauge)
        assert isinstance(reg.histogram("h"), Histogram)
