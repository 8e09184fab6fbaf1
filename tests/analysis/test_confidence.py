"""Cross-round screening: keep/remove decisions and cause attribution."""

from __future__ import annotations

import random

from repro.analysis.confidence import (
    RemovalReason,
    kept_sites,
    screen_all,
    screen_site,
)

from .conftest import V4, V6, add_dual_series, add_series


def noisy(base: float, n: int, jitter: float = 0.02, seed: int = 1) -> list[float]:
    rng = random.Random(seed)
    return [base * (1 + rng.uniform(-jitter, jitter)) for _ in range(n)]


class TestKeep:
    def test_stationary_site_is_kept(self, db, monitor_cfg, analysis_cfg):
        add_dual_series(db, 1, noisy(50, 20), noisy(48, 20))
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.kept
        assert screening.reason is None


class TestInsufficientSamples:
    def test_few_rounds_removed(self, db, monitor_cfg, analysis_cfg):
        add_dual_series(db, 1, noisy(50, 3), noisy(48, 3))
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert not screening.kept
        assert screening.reason is RemovalReason.INSUFFICIENT_SAMPLES

    def test_one_family_short_is_enough_to_remove(self, db, monitor_cfg, analysis_cfg):
        add_series(db, 1, V4, noisy(50, 20))
        add_series(db, 1, V6, noisy(48, 3))
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.reason is RemovalReason.INSUFFICIENT_SAMPLES
        assert screening.reason_family is V6


class TestSteps:
    def test_upward_step_detected(self, db, monitor_cfg, analysis_cfg):
        series = noisy(40, 12) + noisy(70, 12, seed=2)
        add_dual_series(db, 1, series, noisy(50, 24))
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.reason is RemovalReason.STEP_UP
        assert screening.reason_family is V4
        assert screening.step_round is not None

    def test_downward_step_detected(self, db, monitor_cfg, analysis_cfg):
        series = noisy(70, 12) + noisy(40, 12, seed=2)
        add_dual_series(db, 1, noisy(50, 24), series)
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.reason is RemovalReason.STEP_DOWN
        assert screening.reason_family is V6

    def test_step_with_coincident_path_change(self, db, monitor_cfg, analysis_cfg):
        series = noisy(70, 12) + noisy(40, 12, seed=2)
        add_dual_series(
            db,
            1,
            noisy(50, 24),
            series,
            v6_path=(1, 2, 3),
            v6_path_switch=(12, (1, 4, 5, 3)),
        )
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.reason is RemovalReason.STEP_DOWN
        assert screening.step_from_path_change

    def test_step_without_path_change(self, db, monitor_cfg, analysis_cfg):
        series = noisy(70, 12) + noisy(40, 12, seed=2)
        add_dual_series(db, 1, noisy(50, 24), series)
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert not screening.step_from_path_change

    def test_distant_path_change_not_associated(self, db, monitor_cfg, analysis_cfg):
        series = noisy(70, 14) + noisy(40, 14, seed=2)
        add_dual_series(
            db,
            1,
            noisy(50, 28),
            series,
            v6_path=(1, 2, 3),
            v6_path_switch=(3, (1, 4, 5, 3)),  # far from the step at ~14
        )
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.reason is RemovalReason.STEP_DOWN
        assert not screening.step_from_path_change


class TestTrends:
    def test_upward_trend(self, db, monitor_cfg, analysis_cfg):
        series = [40.0 * (1.012**i) for i in range(30)]
        add_dual_series(db, 1, series, noisy(50, 30))
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.reason is RemovalReason.TREND_UP

    def test_downward_trend(self, db, monitor_cfg, analysis_cfg):
        series = [40.0 * (0.988**i) for i in range(30)]
        add_dual_series(db, 1, noisy(50, 30), series)
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        assert screening.reason is RemovalReason.TREND_DOWN


class TestUnstable:
    def test_wild_variance_without_structure(self, db, monitor_cfg, analysis_cfg):
        rng = random.Random(8)
        series = [50.0 * rng.uniform(0.4, 1.8) for _ in range(14)]
        add_dual_series(db, 1, series, series)
        screening = screen_site(db.freeze(), 1, monitor_cfg, analysis_cfg)
        if not screening.kept:  # the draw is wide enough to fail the CI
            assert screening.reason in (
                RemovalReason.UNSTABLE,
                RemovalReason.TREND_UP,
                RemovalReason.TREND_DOWN,
                RemovalReason.STEP_UP,
                RemovalReason.STEP_DOWN,
            )


class TestScreenAll:
    def test_partition(self, db, monitor_cfg, analysis_cfg):
        add_dual_series(db, 1, noisy(50, 20), noisy(48, 20))
        add_dual_series(db, 2, noisy(50, 3), noisy(48, 3))
        screenings = screen_all(db.freeze(), [1, 2], monitor_cfg, analysis_cfg)
        assert kept_sites(screenings) == [1]
        assert [sid for sid, s in screenings.items() if not s.kept] == [2]
