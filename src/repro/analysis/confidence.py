"""Cross-round confidence screening.

A site is *kept* for analysis only when, for both families, its per-round
average speeds (i) number at least ``min_rounds``, (ii) are stationary
(no sharp step, no steady trend), and (iii) have a 95% confidence
interval within 10% of their mean.  Sites failing any criterion are
removed; the failure is labelled with the first cause found, in the
paper's Table 3 vocabulary: insufficient samples, step up/down, trend
up/down — plus an honest ``UNSTABLE`` label for CI failures with no
identifiable cause (the paper folds these into its transition columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from ..config import AnalysisConfig, MonitorConfig
from ..data.columnar import ColumnarDatabase
from ..data.columnar import columnar_view  # noqa: F401  (a perfbench timer target)
from ..data.series import converged_speeds, download_rounds, path_change_rounds
from ..net.addresses import AddressFamily
from ..obs import metrics, span
from ..stats.intervals import t_confidence_interval
from ..stats.medianfilter import detect_step
from ..stats.regression import detect_trend

#: How close (in rounds) a path change must be to a step to call the step
#: path-induced.
PATH_CHANGE_WINDOW = 2


class RemovalReason(Enum):
    """Why a site failed the confidence target (Table 3 columns)."""

    INSUFFICIENT_SAMPLES = "insufficient"
    STEP_UP = "step_up"
    STEP_DOWN = "step_down"
    TREND_UP = "trend_up"
    TREND_DOWN = "trend_down"
    UNSTABLE = "unstable"

    @property
    def is_step(self) -> bool:
        return self in (RemovalReason.STEP_UP, RemovalReason.STEP_DOWN)

    @property
    def is_trend(self) -> bool:
        return self in (RemovalReason.TREND_UP, RemovalReason.TREND_DOWN)


@dataclass(frozen=True)
class SiteScreening:
    """The screening outcome for one site at one vantage point."""

    site_id: int
    kept: bool
    reason: RemovalReason | None = None
    #: which family triggered the removal.
    reason_family: AddressFamily | None = None
    #: monitoring round at which a step was located (steps only).
    step_round: int | None = None
    #: whether a recorded path change coincides with the step.
    step_from_path_change: bool = False


def _check_family(
    db: ColumnarDatabase,
    site_id: int,
    family: AddressFamily,
    monitor_cfg: MonitorConfig,
    analysis_cfg: AnalysisConfig,
) -> tuple[RemovalReason | None, int | None]:
    """Screen one family's series; returns (reason, step_round)."""
    speeds = converged_speeds(db, site_id, family)
    if len(speeds) < monitor_cfg.min_rounds:
        return RemovalReason.INSUFFICIENT_SAMPLES, None

    step = detect_step(
        speeds,
        filter_length=analysis_cfg.median_filter_length,
        threshold=analysis_cfg.step_threshold,
        persistence=analysis_cfg.step_persistence,
    )
    if step is not None:
        rounds = download_rounds(db, site_id, family)
        step_round = rounds[step.index] if step.index < len(rounds) else rounds[-1]
        reason = (
            RemovalReason.STEP_UP if step.direction > 0 else RemovalReason.STEP_DOWN
        )
        return reason, step_round

    trend = detect_trend(
        speeds,
        slope_threshold=analysis_cfg.trend_slope_threshold,
        p_value_threshold=analysis_cfg.trend_p_value,
    )
    if trend is not None:
        reason = (
            RemovalReason.TREND_UP if trend.direction > 0 else RemovalReason.TREND_DOWN
        )
        return reason, None

    interval = t_confidence_interval(speeds, monitor_cfg.confidence)
    if not interval.meets_target(monitor_cfg.ci_relative_width):
        return RemovalReason.UNSTABLE, None
    return None, None


def _near_path_change(
    db: ColumnarDatabase, site_id: int, step_round: int
) -> bool:
    for family in (AddressFamily.IPV4, AddressFamily.IPV6):
        for change_round in path_change_rounds(db, site_id, family):
            if abs(change_round - step_round) <= PATH_CHANGE_WINDOW:
                return True
    return False


def screen_site(
    db: ColumnarDatabase,
    site_id: int,
    monitor_cfg: MonitorConfig,
    analysis_cfg: AnalysisConfig,
) -> SiteScreening:
    """Apply the full screening to one site (both families)."""
    for family in (AddressFamily.IPV4, AddressFamily.IPV6):
        reason, step_round = _check_family(
            db, site_id, family, monitor_cfg, analysis_cfg
        )
        if reason is None:
            continue
        from_path_change = (
            step_round is not None and _near_path_change(db, site_id, step_round)
        )
        return SiteScreening(
            site_id=site_id,
            kept=False,
            reason=reason,
            reason_family=family,
            step_round=step_round,
            step_from_path_change=from_path_change,
        )
    return SiteScreening(site_id=site_id, kept=True)


def screen_all(
    db: ColumnarDatabase,
    site_ids: Iterable[int],
    monitor_cfg: MonitorConfig,
    analysis_cfg: AnalysisConfig,
) -> dict[int, SiteScreening]:
    """Screen many sites; returns ``{site_id: screening}``.

    Rejection causes are tallied into ``analysis.rejected.<reason>``
    counters (the Table 3 vocabulary) plus ``analysis.kept``, so a run's
    sanitize behaviour is visible in the metrics snapshot.
    """
    with span("analysis.screen", vantage=db.vantage_name):
        screenings = {
            site_id: screen_site(db, site_id, monitor_cfg, analysis_cfg)
            for site_id in site_ids
        }
    for screening in screenings.values():
        if screening.kept:
            metrics.counter("analysis.kept").inc()
        else:
            assert screening.reason is not None
            metrics.counter(f"analysis.rejected.{screening.reason.value}").inc()
    return screenings


def kept_sites(screenings: dict[int, SiteScreening]) -> list[int]:
    """Site ids that passed the screening."""
    return sorted(sid for sid, s in screenings.items() if s.kept)
