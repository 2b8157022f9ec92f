"""Unit tests for the workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import RequestClass, WorkloadGenerator
from repro.workloads.patterns import MixPhase, ScaledPattern, StepMixSchedule


CLASSES = [RequestClass("a", "ra", {}), RequestClass("b", "rb", {})]


def _generator(seed=0, low=100.0, high=100.0):
    return WorkloadGenerator(
        ScaledPattern(lambda t: 1.0, low, high),
        StepMixSchedule([MixPhase(0.0, {"a": 3, "b": 1})]),
        CLASSES,
        seed=seed,
    )


class TestValidation:
    def test_request_class_requires_name_and_type(self):
        with pytest.raises(WorkloadError):
            RequestClass("", "t")
        with pytest.raises(WorkloadError):
            RequestClass("n", "")

    def test_duplicate_classes_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(
                ScaledPattern(lambda t: 1.0, 1, 1),
                StepMixSchedule([MixPhase(0.0, {"a": 1})]),
                [RequestClass("a", "t"), RequestClass("a", "t")],
            )

    def test_mix_must_reference_known_classes(self):
        with pytest.raises(WorkloadError, match="unknown"):
            WorkloadGenerator(
                ScaledPattern(lambda t: 1.0, 1, 1),
                StepMixSchedule([MixPhase(0.0, {"ghost": 1})]),
                CLASSES,
            )


class TestArrivals:
    def test_expected_arrivals_follow_mix(self):
        g = _generator()
        expected = g.expected_arrivals(0.0)
        assert expected["a"] == pytest.approx(75.0)
        assert expected["b"] == pytest.approx(25.0)

    def test_poisson_draws_are_seeded(self):
        g1 = _generator(seed=5)
        g2 = _generator(seed=5)
        assert [g1.arrivals(float(t)) for t in range(10)] == [
            g2.arrivals(float(t)) for t in range(10)
        ]

    def test_different_seeds_differ(self):
        g1 = _generator(seed=1)
        g2 = _generator(seed=2)
        draws1 = [g1.arrivals(float(t)) for t in range(20)]
        draws2 = [g2.arrivals(float(t)) for t in range(20)]
        assert draws1 != draws2

    def test_poisson_mean_tracks_rate(self):
        g = _generator(seed=9)
        total = sum(sum(g.arrivals(float(t)).values()) for t in range(300))
        assert total == pytest.approx(300 * 100.0, rel=0.05)


class TestArrivalsSeries:
    """The event engine precomputes arrivals; the batch API must match."""

    def test_series_equals_per_call_draws(self):
        times = [float(t) for t in range(30)]
        series = _generator(seed=5).arrivals_series(times)
        g = _generator(seed=5)
        per_call = [g.arrivals(t) for t in times]
        assert series == per_call

    def test_series_consumes_rng_in_order(self):
        """Drawing the series leaves the RNG where sequential calls would."""
        g1 = _generator(seed=8)
        g2 = _generator(seed=8)
        g1.arrivals_series([float(t) for t in range(10)])
        for t in range(10):
            g2.arrivals(float(t))
        assert g1.arrivals(10.0) == g2.arrivals(10.0)

    def test_empty_series(self):
        assert _generator().arrivals_series([]) == []
