"""Unit and property tests for the Fig. 7 workload patterns."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import WorkloadError
from repro.workloads.patterns import (
    RUN_MINUTES,
    MixPhase,
    ScaledPattern,
    StepMixSchedule,
    cyclic_pattern,
    paper_pattern,
    stepwise_cyclic_pattern,
)


class TestPatterns:
    @given(st.floats(0, RUN_MINUTES))
    def test_paper_pattern_bounded(self, t):
        assert 0.0 <= paper_pattern(t) <= 1.0

    @given(st.floats(0, 1000))
    def test_cyclic_pattern_bounded(self, t):
        assert 0.0 <= cyclic_pattern(t) <= 1.0

    def test_paper_pattern_has_cyclic_head(self):
        values = [paper_pattern(float(t)) for t in range(0, 100)]
        assert max(values) > 0.7
        assert min(values) < 0.2

    def test_paper_pattern_stepwise_increase_phase(self):
        assert paper_pattern(238.0) > paper_pattern(182.0)

    def test_paper_pattern_abrupt_decrease(self):
        assert paper_pattern(256.0) < paper_pattern(254.0) - 0.2

    def test_paper_pattern_continuous_ramp(self):
        assert paper_pattern(329.0) > paper_pattern(271.0) + 0.5

    def test_paper_pattern_rapid_fall(self):
        assert paper_pattern(389.0) < paper_pattern(361.0) - 0.5

    def test_stepwise_is_quantised(self):
        a = stepwise_cyclic_pattern(3.0)
        b = stepwise_cyclic_pattern(9.0)
        assert a == b

    def test_negative_time_rejected(self):
        with pytest.raises(WorkloadError):
            paper_pattern(-1.0)

    def test_determinism(self):
        assert paper_pattern(123.4) == paper_pattern(123.4)


class TestScaledPattern:
    def test_scaling_range(self):
        sp = ScaledPattern(paper_pattern, 100.0, 500.0)
        rates = [sp.rate(float(t)) for t in range(450)]
        assert min(rates) >= 100.0
        assert max(rates) <= 500.0

    def test_invalid_range(self):
        with pytest.raises(WorkloadError):
            ScaledPattern(paper_pattern, 100.0, 50.0)
        with pytest.raises(WorkloadError):
            ScaledPattern(paper_pattern, -1.0, 50.0)


class TestMixSchedules:
    def test_interpolation_blends_linearly(self):
        mix = StepMixSchedule(
            [MixPhase(0.0, {"a": 1, "b": 0.0001}), MixPhase(100.0, {"a": 0.0001, "b": 1})],
        )
        mid = mix.mix(50.0)
        assert mid["a"] == pytest.approx(0.5, abs=0.01)
        assert mid["b"] == pytest.approx(0.5, abs=0.01)

    def test_mix_always_normalised(self):
        mix = StepMixSchedule(
            [MixPhase(0.0, {"a": 2, "b": 3}), MixPhase(60.0, {"a": 5, "b": 1})]
        )
        for t in range(0, 120, 7):
            assert sum(mix.mix(float(t)).values()) == pytest.approx(1.0)

    def test_beyond_last_phase_holds(self):
        mix = StepMixSchedule([MixPhase(0.0, {"a": 1}), MixPhase(10.0, {"a": 1, "b": 1})])
        assert mix.mix(9_999.0) == {"a": 0.5, "b": 0.5}

    def test_first_phase_must_start_at_zero(self):
        with pytest.raises(WorkloadError):
            StepMixSchedule([MixPhase(5.0, {"a": 1})])

    def test_negative_weights_rejected(self):
        with pytest.raises(WorkloadError):
            StepMixSchedule([MixPhase(0.0, {"a": -1, "b": 2})])

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            StepMixSchedule([])

    def test_class_names_union(self):
        mix = StepMixSchedule([MixPhase(0.0, {"a": 1}), MixPhase(10.0, {"b": 1})])
        assert mix.class_names() == ["a", "b"]
