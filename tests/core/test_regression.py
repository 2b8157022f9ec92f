"""Unit tests for the linear-regression capacity model."""

import random

import numpy as np
import pytest

from repro.core.regression import LinearCapacityModel, MachineSpec
from repro.errors import ElasticityError


MACHINE = MachineSpec()


def _train_linear(model, slope=0.01, intercept=2.0, n=40):
    for i in range(n):
        workload = 100.0 * (i + 1)
        model.observe(
            machine=MACHINE,
            workload=workload,
            throughput=workload * 0.95,
            latency_ms=50.0,
            machines_needed=intercept + slope * workload,
        )


class TestValidation:
    def test_negative_ridge_rejected(self):
        with pytest.raises(ElasticityError):
            LinearCapacityModel(ridge=-1)

    def test_zero_ridge_rejected(self):
        """The machine-spec columns are constants, collinear with the
        intercept: without a ridge the Gram matrix is singular for every
        history and ``predict`` could only raise ``LinAlgError``."""
        with pytest.raises(ElasticityError, match="ridge must be > 0"):
            LinearCapacityModel(ridge=0.0)

    def test_small_history_rejected(self):
        with pytest.raises(ElasticityError):
            LinearCapacityModel(max_history=2)

    def test_negative_label_rejected(self):
        model = LinearCapacityModel()
        with pytest.raises(ElasticityError):
            model.observe(MACHINE, 1, 1, 1, machines_needed=-5)


class TestColdStart:
    def test_predict_before_enough_samples(self):
        model = LinearCapacityModel()
        with pytest.raises(ElasticityError, match="needs >= 8"):
            model.predict(MACHINE, 100, 95, 50)

    def test_ready_flag(self):
        model = LinearCapacityModel()
        assert not model.ready()
        _train_linear(model, n=8)
        assert model.ready()


class TestLearning:
    def test_recovers_linear_relationship(self):
        model = LinearCapacityModel()
        _train_linear(model, slope=0.01, intercept=2.0)
        predicted = model.predict(MACHINE, workload=2_500.0, throughput=2_375.0, latency_ms=50.0)
        assert predicted == pytest.approx(2.0 + 0.01 * 2_500.0, rel=0.05)

    def test_extrapolates_beyond_training_range(self):
        model = LinearCapacityModel()
        _train_linear(model, slope=0.02, intercept=0.0)
        predicted = model.predict(MACHINE, workload=10_000.0, throughput=9_500.0, latency_ms=50.0)
        assert predicted == pytest.approx(200.0, rel=0.1)

    def test_prediction_clamped_non_negative(self):
        model = LinearCapacityModel()
        for _ in range(10):
            model.observe(MACHINE, workload=100, throughput=95, latency_ms=50, machines_needed=0.0)
        assert model.predict(MACHINE, 0.0, 0.0, 0.0) >= 0.0

    def test_history_bound(self):
        model = LinearCapacityModel(max_history=16)
        _train_linear(model, n=50)
        assert model.sample_count == 16

    def test_old_samples_age_out(self):
        """After the regime changes, predictions should follow the new data."""
        model = LinearCapacityModel(max_history=32)
        _train_linear(model, slope=0.01, n=32)
        _train_linear(model, slope=0.05, n=32)  # new regime fills the window
        predicted = model.predict(MACHINE, workload=2_000.0, throughput=1_900.0, latency_ms=50.0)
        assert predicted == pytest.approx(2.0 + 0.05 * 2_000.0, rel=0.1)


class _ListReference:
    """The list-of-lists model this one replaced, kept as the oracle:
    same window policy, design matrix re-marshalled on every fit."""

    def __init__(self, ridge=1e-3, max_history=2_000):
        self.ridge, self.max_history = ridge, max_history
        self._x, self._y = [], []

    def observe(self, machine, workload, throughput, latency_ms, machines_needed):
        self._x.append(machine.feature_vector() + [float(workload), float(throughput), float(latency_ms)])
        self._y.append(float(machines_needed))
        if len(self._x) > self.max_history:
            self._x.pop(0)
            self._y.pop(0)

    @property
    def sample_count(self):
        return len(self._y)

    def predict(self, machine, workload, throughput, latency_ms):
        x = np.asarray(self._x, dtype=float)
        y = np.asarray(self._y, dtype=float)
        ones = np.ones((x.shape[0], 1))
        design = np.hstack([x, ones])
        gram = design.T @ design + self.ridge * np.eye(design.shape[1])
        coef = np.linalg.solve(gram, design.T @ y)
        row = np.asarray(
            machine.feature_vector() + [float(workload), float(throughput), float(latency_ms), 1.0],
            dtype=float,
        )
        return float(max(0.0, row @ coef))


class TestAgainstListReference:
    """The in-place window must hand ``_fit`` the same operands the list
    model did, so predictions are equal bit for bit — ``==``, not approx."""

    # 8 never grows (below the initial capacity); 64 crosses the growth
    # steps and then slides ~2 400 times; 2 000 is the default, growing
    # all the way and sliding 500 times.
    @pytest.mark.parametrize("max_history", [8, 64, 2_000])
    def test_predictions_bit_identical(self, max_history):
        rng = random.Random(max_history)
        model = LinearCapacityModel(max_history=max_history)
        reference = _ListReference(max_history=max_history)
        for i in range(2_500):
            workload = rng.uniform(10.0, 5_000.0)
            throughput = workload * rng.uniform(0.5, 1.0)
            latency = rng.uniform(1.0, 400.0)
            needed = workload / 600.0 + rng.gauss(0.0, 0.3) ** 2
            model.observe(MACHINE, workload, throughput, latency, needed)
            reference.observe(MACHINE, workload, throughput, latency, needed)
            if i % 50 == 49:
                query = (MACHINE, workload * 1.1, throughput, latency)
                assert model.predict(*query) == reference.predict(*query), i
                assert model.sample_count == reference.sample_count == min(i + 1, max_history)

    def test_rejected_observation_leaves_full_window_untouched(self):
        model = LinearCapacityModel(max_history=8)
        _train_linear(model, n=12)
        before = model.predict(MACHINE, 500.0, 475.0, 50.0)
        with pytest.raises(ValueError):
            model.observe(MACHINE, "not a number", 1.0, 1.0, machines_needed=1.0)
        assert model.sample_count == 8
        assert model.predict(MACHINE, 500.0, 475.0, 50.0) == before
