"""Linear regression and trend detection."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import regression
from repro.stats.intervals import t_critical
from repro.stats.regression import TrendDetection, detect_trend, linear_regression


class TestLinearRegression:
    def test_exact_line(self):
        fit = linear_regression([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_constant_series_has_no_trend_evidence(self):
        fit = linear_regression([0, 1, 2, 3], [5.0, 5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.p_value == 1.0

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            linear_regression([0, 1], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_regression([0, 1, 2], [1.0, 2.0])


class TestDetectTrend:
    def test_detects_steady_upward_trend(self):
        series = [100.0 * (1.01**i) for i in range(30)]
        trend = detect_trend(series)
        assert trend is not None
        assert trend.direction == 1
        assert trend.relative_slope == pytest.approx(0.01, rel=0.2)

    def test_detects_steady_downward_trend(self):
        series = [100.0 * (0.99**i) for i in range(30)]
        trend = detect_trend(series)
        assert trend is not None and trend.direction == -1

    def test_flat_noisy_series_not_flagged(self):
        rng = random.Random(3)
        series = [100.0 * (1 + rng.uniform(-0.05, 0.05)) for _ in range(40)]
        assert detect_trend(series) is None

    def test_tiny_slope_below_threshold(self):
        series = [100.0 + 0.01 * i for i in range(30)]
        assert detect_trend(series, slope_threshold=0.004) is None

    def test_noisy_trend_still_detected(self):
        rng = random.Random(3)
        series = [
            100.0 * (1.012**i) * (1 + rng.uniform(-0.03, 0.03)) for i in range(40)
        ]
        trend = detect_trend(series)
        assert trend is not None and trend.direction == 1

    def test_short_series_returns_none(self):
        assert detect_trend([1.0, 2.0]) is None

    def test_nonpositive_mean_returns_none(self):
        assert detect_trend([-1.0, -2.0, -3.0, -4.0]) is None


def _scipy_trend(values, slope_threshold=0.004, p_value_threshold=0.01):
    """The trend test on scipy's fit for every series (the gate's oracle)."""
    if len(values) < 3:
        return None
    series_mean = sum(values) / len(values)
    if series_mean <= 0:
        return None
    fit = linear_regression(list(range(len(values))), list(values))
    relative_slope = fit.slope / series_mean
    if abs(relative_slope) < slope_threshold or fit.p_value > p_value_threshold:
        return None
    return TrendDetection(
        direction=1 if relative_slope > 0 else -1,
        relative_slope=relative_slope,
        p_value=fit.p_value,
    )


def _bits(detection):
    if detection is None:
        return None
    return (
        detection.direction,
        detection.relative_slope.hex(),
        detection.p_value.hex(),
    )


def _orthonormal_noise(n: int, rng: random.Random) -> list[float]:
    """A unit vector orthogonal to the constant and the round index, so
    adding it to a line changes Syy but neither the mean nor Sxy."""
    x_mean = (n - 1) / 2
    sxx = n * (n * n - 1) / 12
    raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
    mean = sum(raw) / n
    raw = [value - mean for value in raw]
    along = sum((i - x_mean) * value for i, value in enumerate(raw)) / sxx
    raw = [value - along * (i - x_mean) for i, value in enumerate(raw)]
    norm = math.sqrt(sum(value * value for value in raw))
    return [value / norm for value in raw]


_MEANS = st.one_of(
    st.sampled_from([0.0, -1.0, -250.0, 1e-6, 1.0, 100.0, 1e6]),
    st.floats(-500.0, 5000.0, allow_nan=False),
)
_RELATIVE_SLOPES = st.one_of(
    st.sampled_from([0.0, 0.004, -0.004, 0.00399999, 0.00400001, 0.05, -0.05]),
    st.floats(-0.02, 0.02, allow_nan=False),
)


@st.composite
def _series(draw):
    n = draw(st.integers(3, 60))
    kind = draw(st.sampled_from(["constant", "line", "threshold_t", "noisy", "free"]))
    mean = draw(_MEANS)
    if kind == "constant":
        return [mean] * n
    x_mean = (n - 1) / 2
    slope = draw(_RELATIVE_SLOPES) * mean
    line = [mean + slope * (i - x_mean) for i in range(n)]
    if kind == "line":  # r = ±1 (or a constant when the slope is 0)
        return line
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "threshold_t":
        # noise scaled so |t| equals the 1% two-sided critical value
        if slope == 0.0 or n < 4:
            return line
        sxx = n * (n * n - 1) / 12
        scale = abs(slope) * math.sqrt((n - 2) * sxx) / t_critical(0.99, n - 2)
        noise = _orthonormal_noise(n, rng)
        return [value + scale * e for value, e in zip(line, noise)]
    if kind == "noisy":
        amplitude = draw(st.floats(0.0, 0.2)) * abs(mean)
        return [value + rng.uniform(-amplitude, amplitude) for value in line]
    return draw(
        st.lists(st.floats(0.01, 1e4, allow_nan=False), min_size=n, max_size=n)
    )


class TestClosedFormGate:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_series())
    def test_verdict_and_bits_match_the_scipy_test(self, values):
        assert _bits(detect_trend(values)) == _bits(_scipy_trend(values))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        _series(),
        st.sampled_from([0.0, 0.001, 0.004, 0.02]),
        st.sampled_from([1e-6, 0.01, 0.05, 0.5, 1.0]),
    )
    def test_thresholds_match_the_scipy_test(self, values, slope, p_value):
        assert _bits(detect_trend(values, slope, p_value)) == _bits(
            _scipy_trend(values, slope, p_value)
        )

    def test_slope_exactly_at_threshold_is_decided_by_scipy(self):
        values = [100.0 + 0.4 * (i - 14.5) for i in range(30)]
        assert _bits(detect_trend(values)) == _bits(_scipy_trend(values))

    def test_flat_series_never_reaches_scipy(self, monkeypatch):
        def refuse(x, y):
            raise AssertionError("linear_regression called for a flat series")

        monkeypatch.setattr(regression, "linear_regression", refuse)
        rng = random.Random(5)
        series = [100.0 * (1 + rng.uniform(-0.05, 0.05)) for _ in range(40)]
        assert detect_trend(series) is None
        assert detect_trend([42.0] * 12) is None

    def test_flagged_series_is_fitted_by_scipy(self, monkeypatch):
        calls = []
        original = regression.linear_regression

        def counting(x, y):
            calls.append(len(x))
            return original(x, y)

        monkeypatch.setattr(regression, "linear_regression", counting)
        trend = detect_trend([100.0 * (1.01**i) for i in range(30)])
        assert trend is not None and calls == [30]
