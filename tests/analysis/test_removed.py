"""Removed-site bias audit (Table 5)."""

from __future__ import annotations

from repro.analysis.classify import SiteCategory
from repro.analysis.confidence import RemovalReason, SiteScreening
from repro.analysis.removed import audit_removed_sites

from .conftest import add_dual_series


def removed(site_id, reason=RemovalReason.STEP_DOWN):
    return SiteScreening(site_id=site_id, kept=False, reason=reason)


class TestAuditRemovedSites:
    def test_counts_by_category_and_performance(self, db):
        # SP good (v6 within 10%).
        add_dual_series(db, 1, [100.0] * 3, [95.0] * 3, v4_path=(1, 2, 3))
        # SP bad.
        add_dual_series(db, 2, [100.0] * 3, [60.0] * 3, v4_path=(1, 2, 3))
        # DP bad.
        add_dual_series(
            db, 3, [100.0] * 3, [50.0] * 3, v4_path=(1, 2, 7), v6_path=(1, 4, 7)
        )
        # DL good (v6 better).
        add_dual_series(
            db, 4, [100.0] * 3, [120.0] * 3, v4_path=(1, 2, 9), v6_path=(1, 2, 3)
        )
        screenings = {sid: removed(sid) for sid in (1, 2, 3, 4)}
        audit = audit_removed_sites("V", db.freeze(), screenings)
        assert audit.sp_good == 1
        assert audit.sp_bad == 1
        assert audit.dp_good == 0
        assert audit.dp_bad == 1
        assert audit.dl_good == 1
        assert audit.dl_bad == 0
        assert audit.total == 4
        assert audit.count(SiteCategory.SP, True) == 1

    def test_kept_sites_not_audited(self, db):
        add_dual_series(db, 1, [100.0] * 3, [95.0] * 3)
        screenings = {1: SiteScreening(site_id=1, kept=True)}
        assert audit_removed_sites("V", db.freeze(), screenings).total == 0

    def test_insufficient_samples_not_auditable(self, db):
        add_dual_series(db, 1, [100.0] * 3, [95.0] * 3)
        screenings = {1: removed(1, RemovalReason.INSUFFICIENT_SAMPLES)}
        assert audit_removed_sites("V", db.freeze(), screenings).total == 0
