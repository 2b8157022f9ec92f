"""Unit tests for the per-front-end request sampler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling import RequestSampler
from repro.errors import ElasticityError

#: Most tests here pin the draws of one front end's stream; the ones
#: about the per-front-end split say how many front ends they use.
ONE_STREAM = 1


class TestValidation:
    def test_rate_bounds(self):
        with pytest.raises(ElasticityError):
            RequestSampler(-0.1, ONE_STREAM)
        with pytest.raises(ElasticityError):
            RequestSampler(1.1, ONE_STREAM)

    def test_front_end_count(self):
        with pytest.raises(ElasticityError):
            RequestSampler(0.1, num_front_ends=0)

    def test_front_end_index_bounds(self):
        s = RequestSampler(0.1, num_front_ends=2)
        with pytest.raises(ElasticityError):
            s.should_sample(2)
        with pytest.raises(ElasticityError):
            s.sample_count(10, front_end_index=-1)


class TestDecisions:
    def test_rate_one_samples_everything(self):
        s = RequestSampler(1.0, ONE_STREAM)
        assert all(s.should_sample() for _ in range(100))
        assert s.sampled == s.decisions == 100

    def test_rate_zero_samples_nothing(self):
        s = RequestSampler(0.0, ONE_STREAM)
        assert not any(s.should_sample() for _ in range(100))

    def test_determinism_by_seed(self):
        a = RequestSampler(0.3, num_front_ends=2, seed=42)
        b = RequestSampler(0.3, num_front_ends=2, seed=42)
        seq_a = [a.should_sample(i % 2) for i in range(200)]
        seq_b = [b.should_sample(i % 2) for i in range(200)]
        assert seq_a == seq_b

    def test_different_seeds_differ(self):
        a = RequestSampler(0.5, ONE_STREAM, seed=1)
        b = RequestSampler(0.5, ONE_STREAM, seed=2)
        assert [a.should_sample() for _ in range(64)] != [b.should_sample() for _ in range(64)]

    def test_empirical_rate_near_target(self):
        s = RequestSampler(0.2, ONE_STREAM, seed=7)
        hits = sum(s.should_sample() for _ in range(20_000))
        assert 0.18 < hits / 20_000 < 0.22

    def test_per_server_rate_is_global_rate(self):
        # Each front end samples its own traffic slice at the *global*
        # rate (see the module docstring's reconciliation of the paper's
        # "x/k%" phrasing); the removed per_server_budget property
        # suggested a rate of x/k per server, which would have produced
        # a global traced fraction of x/k instead of x.
        s = RequestSampler(0.10, num_front_ends=4, seed=7)
        assert not hasattr(s, "per_server_budget")
        per_server_hits = []
        for fe in range(4):
            fresh = RequestSampler(0.10, num_front_ends=4, seed=7)
            per_server_hits.append(sum(fresh.should_sample(fe) for _ in range(20_000)))
        for hits in per_server_hits:
            assert 0.08 < hits / 20_000 < 0.12


class TestSampleCount:
    def test_exact_at_extremes(self):
        s = RequestSampler(1.0, ONE_STREAM)
        assert s.sample_count(57) == 57
        z = RequestSampler(0.0, ONE_STREAM)
        assert z.sample_count(57) == 0

    def test_zero_arrivals(self):
        s = RequestSampler(0.5, ONE_STREAM)
        assert s.sample_count(0) == 0

    def test_negative_arrivals_rejected(self):
        s = RequestSampler(0.5, ONE_STREAM)
        with pytest.raises(ElasticityError):
            s.sample_count(-1)

    def test_small_counts_within_bounds(self):
        s = RequestSampler(0.5, ONE_STREAM, seed=3)
        for _ in range(50):
            n = s.sample_count(20)
            assert 0 <= n <= 20

    def test_large_counts_use_normal_approximation(self):
        s = RequestSampler(0.1, ONE_STREAM, seed=3)
        draws = [s.sample_count(10_000) for _ in range(30)]
        mean = sum(draws) / len(draws)
        assert 900 < mean < 1100
        assert all(0 <= d <= 10_000 for d in draws)

    @given(st.integers(0, 5000), st.floats(0.01, 0.99))
    @settings(max_examples=50)
    def test_count_never_exceeds_arrivals(self, arrivals, rate):
        s = RequestSampler(rate, ONE_STREAM, seed=11)
        n = s.sample_count(arrivals)
        assert 0 <= n <= arrivals
