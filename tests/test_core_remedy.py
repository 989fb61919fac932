"""Tests for the online remedy phase and α calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metadata import DimensionMetadata
from repro.core.remedy import AlphaCalibrator, OnlineRemedy, _median
from repro.core.training import TrainingSet
from repro.exceptions import ConfigurationError


def make_linear_training_set():
    """Cost = 2·rows/1e5 + size/100; rows grid 1e5..8e5, size 100..500."""
    ts = TrainingSet(("rows", "size"))
    for rows in range(100_000, 900_000, 100_000):
        for size in range(100, 600, 100):
            cost = 2 * rows / 1e5 + size / 100
            ts.add((rows, size), cost)
    return ts


@pytest.fixture()
def setup():
    ts = make_linear_training_set()
    metadata = ts.build_metadata()
    return ts, metadata


class TestPivotRegression:
    def test_extrapolates_along_pivot(self, setup):
        ts, metadata = setup
        remedy = OnlineRemedy(k_neighbors=6)
        # Query rows = 2e6, way off the 8e5 max; size in range.
        estimate = remedy.estimate(
            nn_estimate=18.0,  # roughly the trained max region
            training_set=ts,
            metadata=metadata,
            features=(2_000_000, 300),
            pivots=(0,),
            alpha=0.5,
        )
        true_cost = 2 * 2_000_000 / 1e5 + 300 / 100  # = 43
        assert estimate.regression_estimate == pytest.approx(true_cost, rel=0.05)
        assert estimate.combined == pytest.approx(
            0.5 * 18.0 + 0.5 * estimate.regression_estimate
        )

    def test_neighbors_match_in_range_dims(self, setup):
        """The regression must use neighbors whose size matches the query,
        so the extrapolation is exact for this separable cost."""
        ts, metadata = setup
        remedy = OnlineRemedy(k_neighbors=6)
        e100 = remedy.estimate(0.0, ts, metadata, (2_000_000, 100), (0,), alpha=0.0)
        e500 = remedy.estimate(0.0, ts, metadata, (2_000_000, 500), (0,), alpha=0.0)
        assert e500.regression_estimate - e100.regression_estimate == pytest.approx(
            4.0, abs=0.5
        )

    def test_two_pivot_dimensions(self, setup):
        ts, metadata = setup
        remedy = OnlineRemedy(k_neighbors=10)
        estimate = remedy.estimate(
            nn_estimate=18.0,
            training_set=ts,
            metadata=metadata,
            features=(2_000_000, 2_000),
            pivots=(0, 1),
            alpha=0.5,
        )
        true_cost = 2 * 2_000_000 / 1e5 + 2_000 / 100
        assert estimate.regression_estimate == pytest.approx(true_cost, rel=0.15)

    def test_no_pivots_rejected(self, setup):
        ts, metadata = setup
        with pytest.raises(ConfigurationError):
            OnlineRemedy().estimate(1.0, ts, metadata, (1, 1), (), alpha=0.5)

    def test_degenerate_training_falls_back_to_nn(self):
        ts = TrainingSet(("rows",))
        for _ in range(5):
            ts.add((100,), 1.0)  # no spread at all
        metadata = ts.build_metadata()
        estimate = OnlineRemedy(k_neighbors=4).estimate(
            nn_estimate=7.0,
            training_set=ts,
            metadata=metadata,
            features=(10_000,),
            pivots=(0,),
            alpha=0.5,
        )
        assert estimate.combined == pytest.approx(7.0)

    def test_combined_never_negative(self, setup):
        ts, metadata = setup
        estimate = OnlineRemedy().estimate(
            nn_estimate=0.0,
            training_set=ts,
            metadata=metadata,
            features=(1, 1),  # below the range: regression may go negative
            pivots=(0, 1),
            alpha=0.5,
        )
        assert estimate.combined >= 0.0


class TestAlphaCalibrator:
    def test_initial_alpha(self):
        assert AlphaCalibrator().alpha == 0.5

    def test_moves_toward_better_estimator(self):
        """When the regression is consistently right and the NN wrong,
        α should fall (weight shifts to the regression)."""
        calibrator = AlphaCalibrator()
        rng = np.random.default_rng(0)
        for _ in range(20):
            actual = rng.uniform(50, 100)
            calibrator.observe(
                nn_estimate=actual * 0.3, regression_estimate=actual, actual=actual
            )
        assert calibrator.recalibrate() < 0.2

    def test_moves_toward_nn_when_nn_is_right(self):
        calibrator = AlphaCalibrator()
        rng = np.random.default_rng(1)
        for _ in range(20):
            actual = rng.uniform(50, 100)
            calibrator.observe(
                nn_estimate=actual, regression_estimate=actual * 2, actual=actual
            )
        assert calibrator.recalibrate() > 0.8

    def test_optimal_alpha_closed_form(self):
        """With actual = 0.7·nn + 0.3·reg exactly, α* = 0.7."""
        calibrator = AlphaCalibrator()
        rng = np.random.default_rng(2)
        for _ in range(30):
            nn = rng.uniform(10, 100)
            reg = rng.uniform(10, 100)
            calibrator.observe(nn, reg, 0.7 * nn + 0.3 * reg)
        assert calibrator.recalibrate() == pytest.approx(0.7, abs=0.01)

    def test_clipping(self):
        calibrator = AlphaCalibrator(min_alpha=0.1, max_alpha=0.9)
        for _ in range(5):
            calibrator.observe(nn_estimate=100, regression_estimate=1, actual=1000)
        assert calibrator.recalibrate() == 0.9

    def test_no_observations_keeps_alpha(self):
        calibrator = AlphaCalibrator()
        assert calibrator.recalibrate() == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AlphaCalibrator(initial_alpha=0.0)
        with pytest.raises(ConfigurationError):
            AlphaCalibrator(min_alpha=0.9, max_alpha=0.1)


class TestRemedyValidation:
    def test_k_neighbors_minimum(self):
        with pytest.raises(ConfigurationError):
            OnlineRemedy(k_neighbors=1)


class TestMedian:
    """The pivot regression's bandwidth median is ``np.median``'s, bit
    for bit, without the ``numpy.ma`` import ``np.median`` makes."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1e300, max_value=1e300),
                st.floats(min_value=0.0, max_value=4.0).map(round),  # ties
                st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 1.7e308)),
            ),
            min_size=1,
            max_size=59,
        )
    )
    def test_matches_np_median_bit_for_bit(self, values):
        array = np.asarray(values, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.float64(np.median(array))
            got = np.float64(_median(array))
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got.tobytes() == expected.tobytes()
