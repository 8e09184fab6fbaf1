"""Per-AS verdicts (the engine of Tables 8 and 11)."""

from __future__ import annotations

import pytest

from repro.analysis.classify import ASGroup, SiteCategory
from repro.analysis.hypotheses import (
    ASVerdict,
    evaluate_as,
    evaluate_groups,
    verdict_fractions,
)

from .conftest import add_dual_series


def sp_group(asn: int, site_ids: tuple[int, ...]) -> ASGroup:
    return ASGroup(asn=asn, category=SiteCategory.SP, site_ids=site_ids)


class TestEvaluateAs:
    def test_comparable_when_within_band(self, db, analysis_cfg):
        add_dual_series(db, 1, [100.0] * 3, [95.0] * 3)
        add_dual_series(db, 2, [100.0] * 3, [93.0] * 3)
        evaluation = evaluate_as(db.freeze(), sp_group(3, (1, 2)), analysis_cfg)
        assert evaluation.verdict is ASVerdict.COMPARABLE
        assert evaluation.n_sites == 2
        assert evaluation.v6_speed / evaluation.v4_speed == pytest.approx(0.94)

    def test_v6_better_is_comparable(self, db, analysis_cfg):
        add_dual_series(db, 1, [100.0] * 3, [120.0] * 3)
        evaluation = evaluate_as(db.freeze(), sp_group(3, (1,)), analysis_cfg)
        assert evaluation.verdict is ASVerdict.COMPARABLE

    def test_zero_mode_when_healthy_site_exists(self, db, analysis_cfg):
        # Four sites, three impaired: AS mean is worse, one site at parity.
        add_dual_series(db, 1, [100.0] * 3, [100.0] * 3)
        for sid in (2, 3, 4):
            add_dual_series(db, sid, [100.0] * 3, [50.0] * 3)
        evaluation = evaluate_as(db.freeze(), sp_group(3, (1, 2, 3, 4)), analysis_cfg)
        assert evaluation.verdict is ASVerdict.ZERO_MODE
        assert evaluation.zero_mode_site_ids == (1,)

    def test_small_n_when_few_sites_and_no_mode(self, db, analysis_cfg):
        add_dual_series(db, 1, [100.0] * 3, [50.0] * 3)
        evaluation = evaluate_as(db.freeze(), sp_group(3, (1,)), analysis_cfg)
        assert evaluation.verdict is ASVerdict.SMALL_N

    def test_worse_when_many_sites_and_no_mode(self, db, analysis_cfg):
        for sid in range(1, 6):
            add_dual_series(db, sid, [100.0] * 3, [55.0] * 3)
        evaluation = evaluate_as(db.freeze(), sp_group(3, tuple(range(1, 6))), analysis_cfg)
        assert evaluation.verdict is ASVerdict.WORSE

    def test_no_data_returns_none(self, db, analysis_cfg):
        assert evaluate_as(db.freeze(), sp_group(3, (42,)), analysis_cfg) is None

    def test_site_filter_restricts_evaluation(self, db, analysis_cfg):
        add_dual_series(db, 1, [100.0] * 3, [100.0] * 3)
        add_dual_series(db, 2, [100.0] * 3, [40.0] * 3)
        full = evaluate_as(db.freeze(), sp_group(3, (1, 2)), analysis_cfg)
        only_good = evaluate_as(
            db.freeze(), sp_group(3, (1, 2)), analysis_cfg, site_filter=[1]
        )
        assert full.verdict is ASVerdict.ZERO_MODE
        assert only_good.verdict is ASVerdict.COMPARABLE


class TestAggregation:
    def test_evaluate_groups_skips_empty(self, db, analysis_cfg):
        add_dual_series(db, 1, [100.0] * 3, [95.0] * 3)
        groups = [sp_group(3, (1,)), sp_group(4, (99,))]
        evaluations = evaluate_groups(db.freeze(), groups, analysis_cfg)
        assert set(evaluations) == {3}

    def test_verdict_fractions(self, db, analysis_cfg):
        add_dual_series(db, 1, [100.0] * 3, [95.0] * 3)  # comparable
        add_dual_series(db, 2, [100.0] * 3, [50.0] * 3)  # small_n
        evaluations = evaluate_groups(
            db.freeze(), [sp_group(3, (1,)), sp_group(4, (2,))], analysis_cfg
        )
        fractions = verdict_fractions(evaluations.values())
        assert fractions[ASVerdict.COMPARABLE] == pytest.approx(0.5)
        assert fractions[ASVerdict.SMALL_N] == pytest.approx(0.5)
        assert fractions[ASVerdict.WORSE] == 0.0

    def test_verdict_fractions_empty(self):
        fractions = verdict_fractions([])
        assert all(v == 0.0 for v in fractions.values())
