"""Tests for the EWMA / Cubic-Spline / ARMA predictors and correctors."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from repro.core import (
    ArmaPredictor,
    CubicSplinePredictor,
    DeadzoneCorrector,
    EwmaPredictor,
    NoCorrection,
    SlackCorrector,
    make_corrector,
    make_predictor,
)


class TestEwma:
    def test_first_observation_is_forecast(self):
        predictor = EwmaPredictor(alpha=0.5)
        predictor.update(100)
        assert predictor.predict() == 100

    def test_smooths_towards_recent(self):
        predictor = EwmaPredictor(alpha=0.5)
        predictor.update(100)
        predictor.update(200)
        assert predictor.predict() == 150

    def test_alpha_one_tracks_exactly(self):
        predictor = EwmaPredictor(alpha=1.0)
        for value in (5, 50, 500):
            predictor.update(value)
        assert predictor.predict() == 500

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=1.5)

    def test_empty_predicts_zero(self):
        assert EwmaPredictor().predict() == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=50))
    def test_forecast_within_observed_range(self, values):
        predictor = EwmaPredictor(alpha=0.3)
        for value in values:
            predictor.update(value)
        tolerance = 1e-9 * (1 + max(values))
        assert min(values) - tolerance <= predictor.predict() <= max(values) + tolerance


class TestCubicSpline:
    def test_needs_window_of_four(self):
        with pytest.raises(ValueError):
            CubicSplinePredictor(window=3)

    def test_few_samples_fall_back_to_last(self):
        predictor = CubicSplinePredictor(window=8)
        predictor.update(10)
        predictor.update(30)
        assert predictor.predict() == 30

    def test_extrapolates_linear_trend(self):
        predictor = CubicSplinePredictor(window=8)
        for value in (10, 20, 30, 40, 50):
            predictor.update(value)
        forecast = predictor.predict()
        assert 55 <= forecast <= 70  # continues the ramp

    def test_constant_series_predicts_constant(self):
        predictor = CubicSplinePredictor(window=6)
        for _ in range(6):
            predictor.update(42)
        assert predictor.predict() == pytest.approx(42)

    def test_clamped_to_multiple_of_max(self):
        predictor = CubicSplinePredictor(window=4, clamp_factor=2.0)
        for value in (1, 2, 4, 100):
            predictor.update(value)
        assert predictor.predict() <= 200

    def test_never_negative(self):
        predictor = CubicSplinePredictor(window=4)
        for value in (100, 60, 20, 0):
            predictor.update(value)
        assert predictor.predict() >= 0

    def test_empty_predicts_zero(self):
        assert CubicSplinePredictor().predict() == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        window=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 3.0, 7.0]),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=4,
            max_size=10,
        ),
        clamp_factor=st.sampled_from([1.0, 2.0, 3.0]),
    )
    def test_cached_forecast_is_bit_identical_to_a_fresh_fit(self, window, clamp_factor):
        # The forecast is memoized per window; every call, cold or warm,
        # and for the window with each zero's sign flipped, must return
        # exactly the bits of a direct spline fit.
        flipped = [-value if value == 0.0 else value for value in window]
        for samples in (window, window, flipped):
            predictor = CubicSplinePredictor(window=len(samples), clamp_factor=clamp_factor)
            for value in samples:
                predictor.update(value)
            expected = _direct_spline_forecast(samples, clamp_factor)
            assert struct.pack("d", predictor.predict()) == struct.pack("d", expected)


def _direct_spline_forecast(samples, clamp_factor):
    """The uncached fit: natural spline, one step past the end, clamped."""
    ys = np.asarray(samples, dtype=float)
    xs = np.arange(len(ys), dtype=float)
    forecast = float(CubicSpline(xs, ys, bc_type="natural")(len(ys)))
    return float(np.clip(forecast, 0.0, clamp_factor * float(ys.max())))


class TestArma:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ArmaPredictor(p=0)
        with pytest.raises(ValueError):
            ArmaPredictor(p=2, q=1, window=4)

    def test_short_series_uses_mean(self):
        predictor = ArmaPredictor(p=1, q=0, window=16)
        predictor.update(10)
        predictor.update(20)
        assert predictor.predict() == pytest.approx(15)

    def test_tracks_ar1_process(self):
        rng = np.random.default_rng(3)
        predictor = ArmaPredictor(p=2, q=1, window=32)
        value = 50.0
        for _ in range(64):
            value = 0.8 * value + 10 + rng.normal(0, 0.5)
            predictor.update(value)
        # Stationary mean of the process is 10 / (1 - 0.8) = 50.
        assert 30 <= predictor.predict() <= 70

    def test_constant_series(self):
        predictor = ArmaPredictor(p=1, q=0, window=16)
        for _ in range(16):
            predictor.update(7.0)
        assert predictor.predict() == pytest.approx(7.0, abs=1.0)

    def test_never_negative(self):
        predictor = ArmaPredictor()
        for value in (100, 50, 10, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0):
            predictor.update(value)
        assert predictor.predict() >= 0

    def test_empty_predicts_zero(self):
        assert ArmaPredictor().predict() == 0.0


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ewma", EwmaPredictor),
            ("cubic-spline", CubicSplinePredictor),
            ("Cubic_Spline", CubicSplinePredictor),
            ("arma", ArmaPredictor),
        ],
    )
    def test_make_predictor(self, name, cls):
        assert isinstance(make_predictor(name), cls)

    def test_unknown_predictor(self):
        with pytest.raises(KeyError):
            make_predictor("prophet")

    def test_observe_and_predict(self):
        predictor = make_predictor("ewma", alpha=1.0)
        assert predictor.observe_and_predict(9) == 9


class TestCorrectors:
    def test_slack_inflates_fractionally(self):
        # Paper example: prediction 1000 at 40% slack -> 1400.
        assert SlackCorrector(0.4).apply(1000) == pytest.approx(1400)

    def test_deadzone_adds_constant(self):
        # Paper example: prediction 1000 with deadzone 100 -> 1100.
        assert DeadzoneCorrector(100).apply(1000) == pytest.approx(1100)

    def test_no_correction(self):
        assert NoCorrection().apply(123.4) == 123.4

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            SlackCorrector(-0.1)
        with pytest.raises(ValueError):
            DeadzoneCorrector(-1)

    @pytest.mark.parametrize("name", ["slack", "deadzone", "none"])
    def test_factory(self, name):
        corrector = make_corrector(name)
        assert corrector.apply(10) >= 10

    def test_factory_unknown(self):
        with pytest.raises(KeyError):
            make_corrector("pid")

    @given(st.floats(min_value=0, max_value=1e6))
    def test_correctors_never_shrink(self, prediction):
        assert SlackCorrector(0.5).apply(prediction) >= prediction
        assert DeadzoneCorrector(50).apply(prediction) >= prediction
