"""Tests for OLS regression."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelNotTrainedError, TrainingError
from repro.ml.linear import LinearRegression


class TestLinearRegression:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=(50, 2))
        y = 3 * x[:, 0] - 2 * x[:, 1] + 7
        model = LinearRegression().fit(x, y)
        assert model.coefficients == pytest.approx([3.0, -2.0])
        assert model.intercept == pytest.approx(7.0)
        assert model.r2(x, y) == pytest.approx(1.0)

    def test_single_feature_slope(self):
        x = np.array([1.0, 2.0, 3.0])
        y = 2 * x + 1
        model = LinearRegression().fit(x, y)
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)

    def test_extrapolation_is_linear(self):
        """The property the sub-op approach relies on (§4)."""
        x = np.array([100.0, 200.0, 400.0, 800.0])
        y = 0.03 * x + 0.7
        model = LinearRegression().fit(x, y)
        assert model.predict(np.array([[10_000.0]]))[0] == pytest.approx(300.7)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ModelNotTrainedError):
            LinearRegression().predict(np.ones((2, 1)))

    def test_too_few_samples_rejected(self):
        with pytest.raises(TrainingError):
            LinearRegression().fit(np.ones((2, 3)), np.ones(2))

    def test_mismatched_rows_rejected(self):
        with pytest.raises(TrainingError):
            LinearRegression().fit(np.ones((3, 1)), np.ones(4))

    def test_slope_only_single_feature(self):
        x = np.ones((5, 2)) * np.arange(5).reshape(-1, 1)
        model = LinearRegression().fit(x, np.arange(5.0))
        with pytest.raises(ConfigurationError):
            _ = model.slope

    def test_feature_count_mismatch_at_predict(self):
        model = LinearRegression().fit(np.arange(5.0), np.arange(5.0))
        with pytest.raises(ConfigurationError):
            model.predict(np.ones((2, 3)))

