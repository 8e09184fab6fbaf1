"""Causes of confidence-target failures (Table 3).

For every removed site, report why: not enough samples, a sharp step up
or down (and, for steps, whether a path change coincided — the paper
found e.g. 64 of 283 Penn transitions were path changes), or a steady
linear trend.  ``UNSTABLE`` collects CI failures with no identified
cause, which the paper's table does not break out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .confidence import RemovalReason, SiteScreening


@dataclass(frozen=True)
class FailureCauses:
    """Aggregated removal causes for one vantage point (a Table 3 row)."""

    vantage_name: str
    insufficient: int
    step_up: int
    step_down: int
    trend_up: int
    trend_down: int
    unstable: int
    #: among step removals, how many coincided with a path change.
    steps_from_path_changes: int

    @property
    def total_steps(self) -> int:
        return self.step_up + self.step_down


def categorise_failures(
    vantage_name: str, screenings: dict[int, SiteScreening]
) -> FailureCauses:
    """Count removal causes over a vantage point's screenings."""
    counts = {reason: 0 for reason in RemovalReason}
    steps_from_path_changes = 0
    for screening in screenings.values():
        if screening.kept:
            continue
        assert screening.reason is not None
        counts[screening.reason] += 1
        if screening.reason.is_step and screening.step_from_path_change:
            steps_from_path_changes += 1
    return FailureCauses(
        vantage_name=vantage_name,
        insufficient=counts[RemovalReason.INSUFFICIENT_SAMPLES],
        step_up=counts[RemovalReason.STEP_UP],
        step_down=counts[RemovalReason.STEP_DOWN],
        trend_up=counts[RemovalReason.TREND_UP],
        trend_down=counts[RemovalReason.TREND_DOWN],
        unstable=counts[RemovalReason.UNSTABLE],
        steps_from_path_changes=steps_from_path_changes,
    )
