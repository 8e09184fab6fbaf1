"""Linear regression and trend detection.

The last two columns of the paper's Table 3 count sites "for which a
linear regression revealed a steady upward (downward) trend in
performance" — non-stationary sites whose average is meaningless.
``detect_trend`` regresses performance on round index and reports a
trend when the slope is both statistically significant and practically
large (relative to the series mean).

Most series carry no trend, so ``detect_trend`` first decides in closed
form.  Over x = 0..n-1 the sums are Sxx = n(n²-1)/12, Sxy and Syy (one
pass after the mean), the slope is Sxy/Sxx and t² = r²(n-2)/(1-r²).  A
two-sided p-value is at most α exactly when |t| ≥ t(1-α/2, n-2), the
cached :func:`~repro.stats.intervals.t_critical`, so no p-value is
computed.  Only a series the gate flags, or whose |t| or relative slope
lies within :data:`GATE_BAND` (relative) of its threshold, is fitted
with :func:`linear_regression`; there the exact test on scipy's result
decides, so every returned :class:`TrendDetection` is the one the scipy
test builds, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from scipy import stats as scipy_stats

from .intervals import t_critical

#: relative distance from a threshold within which the closed-form gate
#: defers to the exact scipy test (float error in the sums is ~1e-15).
GATE_BAND = 1e-9


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares fit of y on x."""

    slope: float
    intercept: float
    r_value: float
    p_value: float
    stderr: float


def linear_regression(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """OLS fit; requires at least three points and matching lengths."""
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if len(x) < 3:
        raise ValueError("need at least three points to regress")
    result = scipy_stats.linregress(x, y)
    p_value = float(result.pvalue)
    if math.isnan(p_value):  # constant input -> no evidence of a trend
        p_value = 1.0
    return LinearFit(
        slope=float(result.slope),
        intercept=float(result.intercept),
        r_value=float(result.rvalue) if not math.isnan(result.rvalue) else 0.0,
        p_value=p_value,
        stderr=float(result.stderr) if not math.isnan(result.stderr) else 0.0,
    )


@dataclass(frozen=True)
class TrendDetection:
    """A detected steady trend in a performance series."""

    direction: int  # +1 up, -1 down
    relative_slope: float  # per-round slope as a fraction of the mean
    p_value: float


def detect_trend(
    values: Sequence[float],
    slope_threshold: float = 0.004,
    p_value_threshold: float = 0.01,
) -> TrendDetection | None:
    """Detect a steady per-round trend in ``values``.

    The slope is normalised by the series mean so the threshold is a
    relative drift per round (e.g. 0.004 = 0.4%/round).
    """
    n = len(values)
    if n < 3:
        return None
    series_mean = sum(values) / n
    if series_mean <= 0:
        return None
    if _clearly_flat(values, series_mean, slope_threshold, p_value_threshold):
        return None
    fit = linear_regression(list(range(n)), list(values))
    relative_slope = fit.slope / series_mean
    if abs(relative_slope) < slope_threshold or fit.p_value > p_value_threshold:
        return None
    return TrendDetection(
        direction=1 if relative_slope > 0 else -1,
        relative_slope=relative_slope,
        p_value=fit.p_value,
    )


def _clearly_flat(
    values: Sequence[float],
    series_mean: float,
    slope_threshold: float,
    p_value_threshold: float,
) -> bool:
    """True when the closed-form OLS fails the slope or the significance
    test by more than :data:`GATE_BAND`, so the exact test must fail too."""
    n = len(values)
    x_mean = (n - 1) / 2
    sxx = n * (n * n - 1) / 12
    sxy = syy = 0.0
    for i, value in enumerate(values):
        dy = value - series_mean
        sxy += (i - x_mean) * dy
        syy += dy * dy
    relative_slope = sxy / sxx / series_mean
    if abs(relative_slope) < slope_threshold * (1 - GATE_BAND):
        return True
    if not 0.0 < p_value_threshold < 1.0:
        return False  # no critical value; the exact test decides
    residual = sxx * syy - sxy * sxy  # Sxx·Syy·(1 - r²)
    if residual <= 0.0:
        return False  # a perfect line: |t| is unbounded
    t_squared = sxy * sxy * (n - 2) / residual
    critical = t_critical(1.0 - p_value_threshold, n - 2)
    return t_squared < (critical * (1 - GATE_BAND)) ** 2
