"""Differential oracle for instrument changes (``state`` / ``change_since``
/ ``apply``).

Converged replay records what one execution did to every instrument and
re-applies it ``n`` times in one step.  For each instrument kind, applying
one execution's change ``n`` times must leave an instrument exactly where
``n`` real repeats of the execution's mutations leave its twin — running
histogram extremes and instruments created mid-execution included — and a
change that only scales approximately (a fractional counter amount or
histogram sum) must be refused rather than scaled.
"""

import pytest

from repro.telemetry import Counter, Gauge, Histogram, TelemetryError

BOUNDS = (1, 4, 16)

#: Per kind: ``(make, prefill, execution)``.  An execution is the list of
#: mutations one run of the code under measurement makes.
KINDS = {
    "counter": (
        lambda: Counter("c"),
        [("inc", 2.0)],
        [("inc", 3.0), ("inc", 1.0)],
    ),
    "gauge": (
        lambda: Gauge("g"),
        [("set", 9.0)],
        [("set", 4.0), ("inc", 2.0), ("dec", 1.0)],
    ),
    "histogram": (
        lambda: Histogram("h", buckets=BOUNDS),
        [("observe", 5.0), ("observe", 2.0)],
        [("observe", 3.0), ("observe", 16.0), ("observe", 40.0), ("observe", 0.0)],
    ),
}


def _run(metric, mutations):
    for method, value in mutations:
        getattr(metric, method)(value)


def _twins(kind, prefilled):
    make, prefill, execution = KINDS[kind]
    metrics = [make() for _ in range(3)]
    if prefilled:
        for metric in metrics:
            _run(metric, prefill)
    return metrics, execution


@pytest.mark.parametrize("times", [1, 2, 7, 16])
@pytest.mark.parametrize("prefilled", [True, False], ids=["existing", "created_mid_execution"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_applied_change_equals_repeated_execution(kind, prefilled, times):
    (observed, replayed, repeated), execution = _twins(kind, prefilled)
    # An instrument created during the execution has no earlier state.
    earlier = observed.state() if prefilled else None
    _run(observed, execution)
    change = observed.change_since(earlier)
    assert change is not None
    assert observed.scalable(change)

    replayed.apply(change, times)
    for _ in range(times):
        _run(repeated, execution)
    assert replayed.state() == repeated.state()
    assert replayed.to_dict() == repeated.to_dict()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_change_since_the_current_state_is_none(kind):
    (metric, fresh, _), _ = _twins(kind, prefilled=True)
    assert metric.change_since(metric.state()) is None
    assert fresh.change_since(None) is not None  # prefilled: moved from zero
    assert KINDS[kind][0]().change_since(None) is None


def test_histogram_change_carries_the_running_extremes():
    """The change holds the instrument's extremes after the execution, not
    the execution's own: re-folding them ``n`` times is a no-op."""
    metric = Histogram("h", buckets=BOUNDS)
    _run(metric, [("observe", 1.0), ("observe", 30.0)])
    earlier = metric.state()
    metric.observe(5.0)
    assert metric.change_since(earlier) == (1, 5.0, (0, 0, 1, 0), 1.0, 30.0)


def test_gauge_change_is_its_last_value_and_scales():
    metric = Gauge("g")
    metric.set(3.5)
    change = metric.change_since(None)
    assert change == 3.5 and metric.scalable(change)
    twin = Gauge("g")
    twin.apply(change, 5)
    assert twin.value == 3.5


class TestFractionalChangesAreRefused:
    def test_counter_amount(self):
        metric = Counter("c")
        metric.inc(0.5)
        change = metric.change_since(None)
        assert not metric.scalable(change)
        with pytest.raises(TelemetryError, match="fractional"):
            Counter("c").apply(change, 3)

    def test_histogram_sum(self):
        metric = Histogram("h", buckets=BOUNDS)
        metric.observe(0.5)
        change = metric.change_since(None)
        assert not metric.scalable(change)
        with pytest.raises(TelemetryError, match="fractional"):
            Histogram("h", buckets=BOUNDS).apply(change, 3)

    @pytest.mark.parametrize("kind, method", [("counter", "inc"), ("histogram", "observe")])
    def test_one_application_needs_no_scaling(self, kind, method):
        (metric, twin, _), _ = _twins(kind, prefilled=False)
        _run(metric, [(method, 0.25)])
        twin.apply(metric.change_since(None), 1)
        assert twin.to_dict() == metric.to_dict()


def test_histogram_change_must_fit_the_buckets():
    with pytest.raises(TelemetryError, match="bucket deltas"):
        Histogram("h", buckets=BOUNDS).apply((1, 2.0, (0, 1), 2.0, 2.0), 1)
