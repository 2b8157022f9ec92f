"""Unit tests for the mesoscale HTrace collector."""

import pytest

from repro.errors import ReproError
from repro.tracing.htrace import HTraceCollector


COSTS = {
    "hot_class": {"frontend": 10.0, "hot": 50.0},
    "cold_class": {"frontend": 10.0, "cold": 30.0},
}


class TestValidation:
    def test_alpha_range(self):
        with pytest.raises(ReproError):
            HTraceCollector(ewma_alpha=0)


class TestBlur:
    def test_blur_has_floor(self):
        c = HTraceCollector()
        assert c.overlap_probability(0) == pytest.approx(c.base_blur)

    def test_blur_grows_with_load(self):
        c = HTraceCollector()
        assert c.overlap_probability(5_000) > c.overlap_probability(100)

    def test_blur_bounded_by_max(self):
        c = HTraceCollector()
        assert c.overlap_probability(10**9) <= c.max_blur + 1e-9


class TestWeights:
    def test_weights_track_span_time(self):
        c = HTraceCollector()
        c.observe_interval({"hot_class": 90.0, "cold_class": 10.0}, COSTS)
        weights = c.component_weights()
        assert weights["hot"] > weights["cold"]
        assert weights["frontend"] > 0

    def test_cross_attribution_bleeds_weight(self):
        """Even a class-exclusive component picks up weight from the other
        class's spans under temporal attribution."""
        c = HTraceCollector()
        c.observe_interval({"hot_class": 50.0, "cold_class": 50.0}, COSTS)
        weights = c.component_weights()
        # `cold` would be 15.0 with exact attribution (0.5 × 30); the bleed
        # adds hot-class span time on top of it relative to a no-blur run.
        exact_cold = 0.5 * 30.0
        assert weights["cold"] > exact_cold * 0.9
        # And the hot component's weight is diluted relative to exact.
        assert weights["hot"] < 0.5 * 50.0 * (1 + c.overlap_probability(100.0))

    def test_idle_interval_ignored(self):
        c = HTraceCollector()
        c.observe_interval({"hot_class": 0.0}, COSTS)
        assert c.component_weights() == {}
        assert c.observations == 0

    def test_stale_components_decay(self):
        c = HTraceCollector(ewma_alpha=0.5)
        c.observe_interval({"hot_class": 100.0}, COSTS)
        before = c.component_weights()["hot"]
        c.observe_interval({"cold_class": 100.0}, COSTS)
        after = c.component_weights()["hot"]
        assert after < before

    def test_ewma_smooths_changes(self):
        c = HTraceCollector(ewma_alpha=0.3)
        c.observe_interval({"hot_class": 100.0, "cold_class": 0.0}, COSTS)
        c.observe_interval({"hot_class": 0.0, "cold_class": 100.0}, COSTS)
        weights = c.component_weights()
        # One interval of cold traffic must not erase the hot history.
        assert weights["hot"] > 0
