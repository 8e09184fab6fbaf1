"""Long-horizon trend detection over observer series.

The significance model, in full (documented here and in DESIGN.md, and
applied identically by the runner to every observer series):

* **Steady trend** — an ordinary-least-squares regression of the series
  on round index (:func:`repro.stats.regression.detect_trend`).  A trend
  is flagged when the per-round slope, normalised by the series mean, is
  at least ``slope_threshold`` (default 0.004 = 0.4%/round, the paper's
  Table 3 criterion) *and* the slope's p-value is at most
  ``p_value_threshold`` (default 0.01).  The test is decided in closed
  form first: over x = 0..n-1, Sxx = n(n²-1)/12, Sxy and Syy come from
  one pass after the mean, and t² = r²(n-2)/(1-r²).  For a two-sided
  test p ≤ α exactly when |t| ≥ t(1-α/2, n-2), so |t| is compared with
  the cached Student-t critical value and no p-value is computed.  Only
  a series the gate flags, or whose |t| or relative slope lies within
  1e-9 (relative) of its threshold, is fitted with scipy, and the exact
  test on scipy's fit decides; the flags carry scipy's slope and
  p-value bit for bit.
* **Level break** — the series is split into two equal round windows and
  a Student-t 95% confidence interval is formed over each.  A break is
  flagged when the two intervals are disjoint *and* the later window's
  mean differs from the earlier one's by more than ``break_threshold``
  (default 0.10, the paper's comparability band).  Windows need at
  least ``min_window`` points each; shorter series are never flagged.

Both checks are exact arithmetic over the series values — no RNG, no
clock — so the flags are as deterministic as the reports that carry
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..stats.intervals import t_confidence_interval
from ..stats.regression import detect_trend

#: the significance model's default parameters (see module docstring).
SLOPE_THRESHOLD = 0.004
P_VALUE_THRESHOLD = 0.01
BREAK_THRESHOLD = 0.10
MIN_WINDOW = 3


@dataclass(frozen=True)
class TrendFlag:
    """One flagged trend or level break on one series."""

    series: str
    kind: str  # "steady_trend" | "level_break"
    direction: int  # +1 up, -1 down
    magnitude: float  # relative slope per round, or relative level shift
    p_value: float | None  # regression p-value; None for level breaks

    def to_payload(self) -> dict:
        return {
            "series": self.series,
            "kind": self.kind,
            "direction": self.direction,
            "magnitude": self.magnitude,
            "p_value": self.p_value,
        }


def steady_trend(name: str, values: list[float]) -> TrendFlag | None:
    """The OLS steady-trend check of the significance model."""
    detection = detect_trend(
        values,
        slope_threshold=SLOPE_THRESHOLD,
        p_value_threshold=P_VALUE_THRESHOLD,
    )
    if detection is None:
        return None
    return TrendFlag(
        series=name,
        kind="steady_trend",
        direction=detection.direction,
        magnitude=detection.relative_slope,
        p_value=detection.p_value,
    )


def level_break(name: str, values: list[float]) -> TrendFlag | None:
    """The two-window level-break check of the significance model."""
    half = len(values) // 2
    if half < MIN_WINDOW:
        return None
    early, late = values[:half], values[half:]
    early_ci = t_confidence_interval(early)
    late_ci = t_confidence_interval(late)
    disjoint = early_ci.high < late_ci.low or late_ci.high < early_ci.low
    if not disjoint or early_ci.mean == 0:
        return None
    shift = (late_ci.mean - early_ci.mean) / abs(early_ci.mean)
    if abs(shift) <= BREAK_THRESHOLD:
        return None
    return TrendFlag(
        series=name,
        kind="level_break",
        direction=1 if shift > 0 else -1,
        magnitude=shift,
        p_value=None,
    )


def flag_series(name: str, values: list[float]) -> list[TrendFlag]:
    """Every flag the significance model raises on one series."""
    flags = []
    for check in (steady_trend, level_break):
        flag = check(name, values)
        if flag is not None:
            flags.append(flag)
    return flags


def analyze_series(series: dict[str, dict]) -> list[dict]:
    """Flags over an observer body's ``series`` section, JSON-ready.

    ``series`` maps metric name to ``{"rounds": [...], "values": [...]}``;
    flags come back sorted by (series name, kind) so the report encoding
    is canonical.
    """
    flags: list[TrendFlag] = []
    for name in sorted(series):
        values = [float(v) for v in series[name].get("values", [])]
        flags.extend(flag_series(name, values))
    flags.sort(key=lambda f: (f.series, f.kind))
    return [flag.to_payload() for flag in flags]
