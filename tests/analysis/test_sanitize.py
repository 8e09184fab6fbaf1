"""Table 3 aggregation."""

from __future__ import annotations

from repro.analysis.confidence import RemovalReason, SiteScreening
from repro.analysis.sanitize import categorise_failures


def screening(site_id, reason=None, path_change=False, step_round=None):
    return SiteScreening(
        site_id=site_id,
        kept=reason is None,
        reason=reason,
        step_round=step_round,
        step_from_path_change=path_change,
    )


class TestCategoriseFailures:
    def test_counts_by_reason(self):
        screenings = {
            1: screening(1),
            2: screening(2, RemovalReason.INSUFFICIENT_SAMPLES),
            3: screening(3, RemovalReason.STEP_UP, step_round=5),
            4: screening(4, RemovalReason.STEP_DOWN, path_change=True, step_round=6),
            5: screening(5, RemovalReason.TREND_UP),
            6: screening(6, RemovalReason.TREND_DOWN),
            7: screening(7, RemovalReason.UNSTABLE),
        }
        causes = categorise_failures("V", screenings)
        assert causes.insufficient == 1
        assert causes.step_up == 1
        assert causes.step_down == 1
        assert causes.trend_up == 1
        assert causes.trend_down == 1
        assert causes.unstable == 1
        assert causes.total_steps == 2
        assert causes.steps_from_path_changes == 1

    def test_all_kept(self):
        causes = categorise_failures("V", {1: screening(1), 2: screening(2)})
        assert causes.insufficient == causes.unstable == 0
        assert causes.total_steps == 0
