"""Dependency-free runtime metrics: counters, gauges, histograms, timers.

The paper's evaluation (Section V) is built on *measured* runtime
behaviour — instrumentation overhead, path-counter time series, agility
and SLA tables — so the runtime layers need a uniform way to expose
their internal counters.  This module is the single mechanism: a
:class:`MetricsRegistry` hands out named, optionally labelled metric
instruments and renders a point-in-time :meth:`~MetricsRegistry.snapshot`
with a stable, schema-versioned JSON shape that the CLI, the benchmark
harness, and the end-to-end benchmark all consume.

Design constraints:

* **No third-party dependencies** — the monitoring host must not be
  heavier than the thing it monitors.
* **Cheap on the hot path** — incrementing a counter is one float add;
  metric instruments are created once and cached on the instrumented
  object, not looked up per event.
* **Monotonic counters, per-run registries** — counters only grow, so
  a per-run figure is read from a registry private to that run.  The
  few per-instance properties that remain
  (``DirectCausalityTracker.completed_paths``,
  ``CausalPathProfiler.unmatched_observations``) capture the counter
  value at construction and report the delta, so several instances can
  share one registry.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Version of the snapshot JSON shape.  Bump only with a migration note
#: in docs/architecture.md.
SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus
#: style).  Callers measuring sizes/depths pass their own boundaries.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelMapping = Optional[Mapping[str, str]]


class TelemetryError(ReproError):
    """Invalid metric declaration or use."""


def _label_key(labels: LabelMapping) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, label_key: Tuple[Tuple[str, str], ...]) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class Metric:
    """Base: a named instrument with a frozen label set."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelMapping = None) -> None:
        if not name:
            raise TelemetryError("metric name must be non-empty")
        self.name = name
        label_key = _label_key(labels)
        self.labels: Dict[str, str] = dict(label_key)
        # Labels are frozen after construction, so the rendered key is
        # computed once rather than on every registry/snapshot access.
        self._key = _render_key(name, label_key)

    @property
    def key(self) -> str:
        """Stable registry key: ``name`` or ``name{k=v,…}`` (sorted labels)."""
        return self._key

    def to_dict(self) -> Dict[str, object]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    # -- changes: what one stretch of work did to this instrument -------------
    #
    # ``state()`` is a comparable value; ``change_since(earlier)`` is what
    # happened since ``state()`` returned ``earlier`` (``None``: since the
    # instrument was created), or ``None`` when nothing did; ``apply(change,
    # times)`` does it again ``times`` over in one step.

    def scalable(self, change) -> bool:
        """Whether ``apply(change, n)`` equals ``n`` successive
        ``apply(change, 1)``: float adds scale exactly only for an integral
        amount, so ``apply`` refuses to scale a fractional one."""
        return True


class Counter(Metric):
    """Monotonically increasing count of events."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelMapping = None) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(f"counter {self.key} cannot decrease (inc by {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self._value, "labels": self.labels}

    def reset(self) -> None:
        self._value = 0.0

    def state(self) -> float:
        return self._value

    def change_since(self, earlier: Optional[float]) -> Optional[float]:
        """The amount added since ``earlier``."""
        base = 0.0 if earlier is None else earlier
        return self._value - base if self._value != base else None

    def scalable(self, change: float) -> bool:
        return not change % 1

    def apply(self, change: float, times: int = 1) -> None:
        if times != 1 and not self.scalable(change):
            raise TelemetryError(f"counter {self.key!r}: cannot scale a fractional {change!r}")
        self.inc(change * times)


class Gauge(Metric):
    """Point-in-time value that can move both ways (depths, sizes)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelMapping = None) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self._value, "labels": self.labels}

    def reset(self) -> None:
        self._value = 0.0

    def state(self) -> float:
        return self._value

    def change_since(self, earlier: Optional[float]) -> Optional[float]:
        """The value set since ``earlier``: a gauge change is its last value."""
        base = 0.0 if earlier is None else earlier
        return self._value if self._value != base else None

    def apply(self, change: float, times: int = 1) -> None:
        """Set ``change``; setting the same value again changes nothing."""
        self.set(change)


class Histogram(Metric):
    """Fixed-bucket histogram with percentile estimation.

    Buckets are cumulative-style upper bounds (a sample lands in the
    first bucket whose bound is >= the value; larger samples land in the
    implicit overflow bucket).  Percentiles are estimated from the bucket
    counts, so they are exact to bucket resolution — good enough for
    regression gating, free of per-sample storage.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelMapping = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise TelemetryError(f"histogram {name} needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise TelemetryError(f"histogram {name} has duplicate bucket bounds")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._bucket_counts[i] += 1
                return
        self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Read-only bucket tallies, in ``bounds`` order, overflow last."""
        return tuple(self._bucket_counts)

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from bucket counts.

        Returns the upper bound of the bucket holding the quantile,
        clamped to the observed ``[min, max]`` range — so ``q=0`` is the
        observed minimum (not the first bucket's bound, which may lie
        below every sample) and no estimate ever exceeds the observed
        maximum (a bucket bound is only an upper limit on its samples).
        Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        if q == 0.0:
            # rank 0 would otherwise be satisfied by the first bucket
            # even when that bucket is empty.
            return self._min
        rank = q * self._count
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += self._bucket_counts[i]
            if cumulative >= rank:
                return min(max(bound, self._min), self._max)
        return self._max

    def merge(self, data: Mapping[str, object]) -> None:
        """Fold another histogram's :meth:`to_dict` export into this one.

        The bucket boundaries must match exactly; counts, sums and
        extrema combine as if every sample had been observed here.
        Parses and validates the wire dict, then accumulates.
        """
        buckets = data["buckets"]
        bounds = tuple(sorted(float(b) for b in buckets if b != "+Inf"))
        if bounds != self.bounds:
            raise TelemetryError(
                f"histogram {self.key!r}: cannot merge mismatched buckets "
                f"{bounds} into {self.bounds}"
            )
        tallies = [int(buckets[str(bound)]) for bound in self.bounds]
        tallies.append(int(buckets.get("+Inf", 0)))
        self.accumulate(
            int(data["count"]), float(data["sum"]), tallies, data.get("min"), data.get("max")
        )

    def accumulate(self, count, total, buckets, low, high, times=1) -> None:
        """Fold ``times`` copies of an already-typed delta into this one.

        ``buckets`` is one integer tally per bound plus overflow, in
        ``bounds`` order (:meth:`apply` checks its length).  Scaling equals
        ``times`` successive adds only for an integral ``total``.
        """
        for i, tally in enumerate(buckets):
            self._bucket_counts[i] += tally * times
        self._count += count * times
        self._sum += total * times
        if low is not None:
            self._min = low if self._min is None else min(self._min, low)
        if high is not None:
            self._max = high if self._max is None else max(self._max, high)

    def state(self) -> tuple:
        return (self._count, self._sum, self.bucket_counts, self._min, self._max)

    def change_since(self, earlier: Optional[tuple]) -> Optional[tuple]:
        """``(count, sum, buckets, min, max)``: the added count, sum and
        bucket tallies, and the running extremes now (an execution's own
        extremes are not recoverable from the instrument's)."""
        if earlier is None:
            earlier = (0, 0.0, (0,) * len(self._bucket_counts), None, None)
        count, total, buckets, low, high = earlier
        dcount, dsum = self._count - count, self._sum - total
        dbuckets = tuple(now - then for now, then in zip(self._bucket_counts, buckets))
        if dcount or dsum or any(dbuckets) or (self._min, self._max) != (low, high):
            return (dcount, dsum, dbuckets, self._min, self._max)
        return None

    def scalable(self, change: tuple) -> bool:
        return not change[1] % 1

    def apply(self, change: tuple, times: int = 1) -> None:
        if len(change[2]) != len(self._bucket_counts):
            raise TelemetryError(f"histogram {self.key!r}: {len(change[2])} bucket deltas")
        if times != 1 and not self.scalable(change):
            raise TelemetryError(f"histogram {self.key!r}: cannot scale a fractional sum")
        self.accumulate(*change, times=times)

    def to_dict(self) -> Dict[str, object]:
        buckets = {str(b): c for b, c in zip(self.bounds, self._bucket_counts)}
        buckets["+Inf"] = self._bucket_counts[-1]
        return {
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "buckets": buckets,
            "labels": self.labels,
        }

    def reset(self) -> None:
        self._bucket_counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None


class Timer:
    """Context manager recording elapsed wall-clock seconds into a histogram.

    Re-entrant across uses (not nested): one Timer can time many
    successive blocks, e.g. every simulation interval.
    """

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._started: Optional[float] = None
        self.last_seconds: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._started is not None:
            self.last_seconds = time.perf_counter() - self._started
            self.histogram.observe(self.last_seconds)
            self._started = None


class MetricsRegistry:
    """Get-or-create registry of metric instruments.

    Identity is (name, sorted labels); asking twice for the same identity
    returns the same instrument, so instrumented objects can share
    aggregate metrics across a whole simulation while holding direct
    references for hot-path updates.

    Concurrency: a registry is single-threaded, with no lock on any
    path.  Process workers don't share memory at all — each runs its
    own registry and the parent folds the results together via
    :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- get-or-create -----------------------------------------------------------

    def _get_or_create(self, cls, name: str, labels: LabelMapping, **kwargs) -> Metric:
        key = _render_key(name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, labels=labels, **kwargs)
        if not isinstance(metric, cls):
            raise TelemetryError(
                f"metric {key!r} already registered as {metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, labels: LabelMapping = None) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: LabelMapping = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: LabelMapping = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def timer(
        self,
        name: str,
        labels: LabelMapping = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Timer:
        return Timer(self.histogram(name, labels=labels, buckets=buckets))

    # -- introspection -----------------------------------------------------------

    def get(self, name: str, labels: LabelMapping = None) -> Optional[Metric]:
        return self._metrics.get(_render_key(name, _label_key(labels)))

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time export: ``{"schema": 1, "metrics": {key: {...}}}``."""
        keys = sorted(self._metrics)
        return {
            "schema": SCHEMA_VERSION,
            "metrics": {key: self._metrics[key].to_dict() for key in keys},
        }

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how per-worker registries aggregate: each worker (thread
        or process) records into its own registry, and the coordinator
        merges the exported snapshots.  Counters add; gauges add too (a
        merged gauge is the *sum* of the per-worker last-seen values —
        meaningful for depth-style gauges, document per metric if not);
        histograms require identical bucket boundaries and combine
        bucket-by-bucket.  Timers export as histograms, so they merge as
        histograms.
        """
        schema = snapshot.get("schema")
        if schema != SCHEMA_VERSION:
            raise TelemetryError(
                f"cannot merge snapshot with schema {schema!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        for key, data in snapshot.get("metrics", {}).items():
            name = key.split("{", 1)[0]
            labels = data.get("labels") or None
            kind = data.get("type")
            if kind == Counter.kind:
                self.counter(name, labels).inc(float(data["value"]))
            elif kind == Gauge.kind:
                self.gauge(name, labels).inc(float(data["value"]))
            elif kind == Histogram.kind:
                buckets = data["buckets"]
                bounds = sorted(float(b) for b in buckets if b != "+Inf")
                self.histogram(name, labels, buckets=bounds).merge(data)
            else:
                raise TelemetryError(
                    f"cannot merge metric {key!r} of unknown kind {kind!r}"
                )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Zero every registered instrument (identities are kept)."""
        for metric in self._metrics.values():
            metric.reset()

    def clear(self) -> None:
        """Drop every instrument (existing references keep working but
        are no longer exported)."""
        self._metrics.clear()


#: Process-wide default registry: instrumented objects that are not
#: handed an explicit registry report here, so ad-hoc scripts and the
#: ``repro metrics`` CLI see everything without wiring.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY
