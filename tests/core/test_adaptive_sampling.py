"""Tests for the adaptive and preferential sampling extensions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling import (
    ADAPTIVE_MAX_RATE,
    ADAPTIVE_MIN_RATE,
    AdaptiveSamplingController,
    PreferentialPathSampler,
    RequestSampler,
)
from repro.errors import ElasticityError


class TestAdaptiveController:
    def test_validation(self):
        with pytest.raises(ElasticityError):
            AdaptiveSamplingController(target_overhead=0)
        with pytest.raises(ElasticityError):
            AdaptiveSamplingController(target_overhead=1.0)

    def test_converges_to_overhead_target(self):
        ctrl = AdaptiveSamplingController(target_overhead=0.05)
        rate = 0.5
        overhead_per_rate = 0.28  # app property: overhead ≈ 0.28 × rate
        for _ in range(25):
            rate = ctrl.update(rate, rate * overhead_per_rate)
        assert rate * overhead_per_rate == pytest.approx(0.05, rel=0.05)

    def test_rate_increases_when_overhead_below_target(self):
        ctrl = AdaptiveSamplingController(target_overhead=0.05)
        assert ctrl.update(0.05, 0.01) > 0.05

    def test_rate_decreases_when_overhead_above_target(self):
        ctrl = AdaptiveSamplingController(target_overhead=0.05)
        assert ctrl.update(0.5, 0.20) < 0.5

    def test_step_bounded(self):
        ctrl = AdaptiveSamplingController(target_overhead=0.05)
        assert ctrl.update(0.10, 10.0) >= 0.10 / 1.5 - 1e-12
        assert ctrl.update(0.10, 1e-9) <= 0.10 * 1.5 + 1e-12

    def test_cold_start_probes_upward(self):
        ctrl = AdaptiveSamplingController()
        assert ctrl.update(0.05, 0.0) > 0.05

    def test_rate_bounds_respected(self):
        ctrl = AdaptiveSamplingController()
        assert ctrl.update(0.011, 10.0) == ADAPTIVE_MIN_RATE
        rate = 0.5
        for _ in range(10):
            rate = ctrl.update(rate, 1e-6)
        assert rate == ADAPTIVE_MAX_RATE

    @given(st.floats(0.01, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_output_always_in_bounds(self, rate, overhead):
        ctrl = AdaptiveSamplingController()
        out = ctrl.update(rate, overhead)
        assert ADAPTIVE_MIN_RATE <= out <= ADAPTIVE_MAX_RATE


class TestPreferentialSampler:
    def test_validation(self):
        with pytest.raises(ElasticityError):
            PreferentialPathSampler(0.0)

    def test_rare_types_get_higher_rates(self):
        sampler = PreferentialPathSampler(0.10)
        rates = sampler.update_rates({"hot": 0.9, "rare": 0.1})
        assert rates["rare"] > rates["hot"]

    def test_budget_is_preserved(self):
        sampler = PreferentialPathSampler(0.10)
        shares = {"a": 0.6, "b": 0.3, "c": 0.1}
        sampler.update_rates(shares)
        assert sampler.effective_budget(shares) == pytest.approx(0.10, rel=1e-6)

    def test_budget_preserved_with_capped_types(self):
        """Very rare types hit the rate-1 cap; the clipped budget is
        redistributed, keeping the aggregate budget intact."""
        sampler = PreferentialPathSampler(0.30)
        shares = {"hot": 0.98, "tiny": 0.02}
        rates = sampler.update_rates(shares)
        assert rates["tiny"] == 1.0
        assert sampler.effective_budget(shares) == pytest.approx(0.30, rel=1e-6)

    def test_rates_never_exceed_one(self):
        sampler = PreferentialPathSampler(0.9)
        rates = sampler.update_rates({"a": 0.999, "b": 0.001})
        assert all(0 < r <= 1.0 for r in rates.values())

    def test_uniform_shares_give_uniform_rates(self):
        sampler = PreferentialPathSampler(0.10)
        rates = sampler.update_rates({"a": 0.5, "b": 0.5})
        assert rates["a"] == pytest.approx(rates["b"])
        assert rates["a"] == pytest.approx(0.10)

    def test_sample_counts_respect_rates(self):
        sampler = PreferentialPathSampler(0.10, seed=5)
        sampler.update_rates({"hot": 0.9, "rare": 0.1})
        hot = sum(sampler.sample_count("hot", 1000) for _ in range(20))
        rare = sum(sampler.sample_count("rare", 1000) for _ in range(20))
        assert rare > hot  # same arrivals, higher rate → more samples

    def test_rare_path_counts_more_balanced_than_uniform(self):
        """The extension's point: per-type *absolute* sample counts under
        preferential sampling are closer together than under uniform."""
        shares = {"hot": 0.9, "rare": 0.1}
        arrivals = {"hot": 900, "rare": 100}
        pref = PreferentialPathSampler(0.10, seed=3)
        pref.update_rates(shares)
        uni = RequestSampler(0.10, num_front_ends=1, seed=3)  # one stream, as per type
        pref_counts = {
            t: sum(pref.sample_count(t, arrivals[t]) for _ in range(30)) for t in shares
        }
        uni_counts = {
            t: sum(uni.sample_count(arrivals[t]) for _ in range(30)) for t in shares
        }
        pref_ratio = pref_counts["hot"] / max(1, pref_counts["rare"])
        uni_ratio = uni_counts["hot"] / max(1, uni_counts["rare"])
        assert pref_ratio < uni_ratio

    def test_unknown_type_falls_back_to_budget(self):
        sampler = PreferentialPathSampler(0.10, seed=1)
        n = sampler.sample_count("never-seen", 1000)
        assert 40 < n < 180

    def test_empty_shares_keep_previous_rates(self):
        sampler = PreferentialPathSampler(0.10)
        first = sampler.update_rates({"a": 1.0})
        second = sampler.update_rates({})
        assert second == first
