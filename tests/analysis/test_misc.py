"""Section 5.5 trait analysis."""

from __future__ import annotations

from repro.analysis.classify import classify_sites
from repro.analysis.misc import trait_analysis

from .conftest import add_dual_series


class TestTraitAnalysis:
    def test_no_dominant_trait_in_balanced_population(self, db):
        # Winners spread across SP and DP evenly.
        add_dual_series(db, 1, [100.0] * 3, [110.0] * 3, v4_path=(1, 2, 3))
        add_dual_series(
            db, 2, [100.0] * 3, [110.0] * 3, v4_path=(1, 2, 7), v6_path=(1, 4, 7)
        )
        add_dual_series(db, 3, [100.0] * 3, [50.0] * 3, v4_path=(1, 2, 4))
        add_dual_series(
            db, 4, [100.0] * 3, [50.0] * 3, v4_path=(1, 2, 8), v6_path=(1, 4, 8)
        )
        classifications = classify_sites(db.freeze(), [1, 2, 3, 4])
        report = trait_analysis(db.freeze(), classifications)
        assert report.n_winners == 2
        assert report.n_baseline == 4
        # Category shares among winners equal baseline -> no lift.
        assert report.no_dominant_trait

    def test_dominant_trait_detected_when_planted(self, db):
        # All winners are SP; all losers are DP.
        for sid in (1, 2, 3):
            add_dual_series(db, sid, [100.0] * 3, [120.0] * 3, v4_path=(1, 2, 3))
        for sid in (4, 5, 6):
            add_dual_series(
                db, sid, [100.0] * 3, [40.0] * 3,
                v4_path=(1, 2, 7), v6_path=(1, 4, 7),
            )
        classifications = classify_sites(db.freeze(), [1, 2, 3, 4, 5, 6])
        report = trait_analysis(db.freeze(), classifications)
        assert not report.no_dominant_trait
        top = report.dominant_traits[0]
        assert top.trait == "category"
        assert top.value == "SP"

    def test_extra_traits(self, db):
        add_dual_series(db, 1, [100.0] * 3, [120.0] * 3)
        classifications = classify_sites(db.freeze(), [1])
        report = trait_analysis(
            db.freeze(), classifications, extra_traits={"parity": lambda sid: sid % 2}
        )
        assert any(s.trait == "parity" for s in report.shares)

    def test_empty_population(self, db):
        report = trait_analysis(db.freeze(), {})
        assert report.n_winners == 0
        assert report.no_dominant_trait
