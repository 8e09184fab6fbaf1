"""DL / SP / DP classification and AS grouping."""

from __future__ import annotations

import pytest

from repro.analysis.classify import (
    SiteCategory,
    classify_site,
    classify_sites,
    group_by_destination,
    groups_in_category,
    sites_in_category,
)

from .conftest import add_dual_series


class TestClassifySite:
    def test_sp_site(self, db):
        add_dual_series(db, 1, [50.0] * 3, [49.0] * 3, v4_path=(1, 2, 3))
        c = classify_site(db.freeze(), 1)
        assert c.category is SiteCategory.SP
        assert c.dest_v4 == c.dest_v6

    def test_dp_site(self, db):
        add_dual_series(
            db, 1, [50.0] * 3, [40.0] * 3, v4_path=(1, 2, 3), v6_path=(1, 4, 5, 3)
        )
        c = classify_site(db.freeze(), 1)
        assert c.category is SiteCategory.DP
        assert c.dest_v4 == c.dest_v6

    def test_dl_site(self, db):
        add_dual_series(
            db, 1, [50.0] * 3, [40.0] * 3, v4_path=(1, 2, 9), v6_path=(1, 2, 3)
        )
        c = classify_site(db.freeze(), 1)
        assert c.category is SiteCategory.DL
        assert c.dest_v4 != c.dest_v6

    def test_no_paths_is_none(self, db):
        assert classify_site(db.freeze(), 99) is None

    def test_modal_path_decides_for_flappers(self, db):
        # v6 path flips for the last third of rounds: modal path == v4 path.
        add_dual_series(
            db,
            1,
            [50.0] * 9,
            [49.0] * 9,
            v4_path=(1, 2, 3),
            v6_path=(1, 2, 3),
            v6_path_switch=(6, (1, 4, 3)),
        )
        assert classify_site(db.freeze(), 1).category is SiteCategory.SP


class TestGrouping:
    @pytest.fixture()
    def classified(self, db):
        # AS 3: two SP sites; AS 7: two DP sites; one DL site -> AS 9/3.
        add_dual_series(db, 1, [50.0] * 3, [49.0] * 3, v4_path=(1, 2, 3))
        add_dual_series(db, 2, [50.0] * 3, [48.0] * 3, v4_path=(1, 2, 3))
        add_dual_series(
            db, 3, [50.0] * 3, [30.0] * 3, v4_path=(1, 2, 7), v6_path=(1, 4, 5, 7)
        )
        add_dual_series(
            db, 4, [50.0] * 3, [30.0] * 3, v4_path=(1, 2, 7), v6_path=(1, 4, 5, 7)
        )
        add_dual_series(
            db, 5, [50.0] * 3, [30.0] * 3, v4_path=(1, 2, 9), v6_path=(1, 2, 3)
        )
        return classify_sites(db.freeze(), [1, 2, 3, 4, 5])

    def test_sites_in_category(self, classified):
        assert sites_in_category(classified, SiteCategory.SP) == [1, 2]
        assert sites_in_category(classified, SiteCategory.DP) == [3, 4]
        assert sites_in_category(classified, SiteCategory.DL) == [5]

    def test_group_by_destination_excludes_dl(self, classified):
        groups = group_by_destination(classified)
        assert set(groups) == {3, 7}

    def test_group_categories(self, classified):
        groups = group_by_destination(classified)
        assert groups[3].category is SiteCategory.SP
        assert groups[3].site_ids == (1, 2)
        assert groups[7].category is SiteCategory.DP
        assert groups[7].site_ids == (3, 4)

    def test_groups_in_category(self, classified):
        groups = group_by_destination(classified)
        assert [g.asn for g in groups_in_category(groups, SiteCategory.SP)] == [3]
        assert [g.asn for g in groups_in_category(groups, SiteCategory.DP)] == [7]

    def test_majority_vote_for_mixed_as(self, db):
        # Two SP sites and one DP site in AS 3: the AS stays SP.
        add_dual_series(db, 1, [50.0] * 3, [49.0] * 3, v4_path=(1, 2, 3))
        add_dual_series(db, 2, [50.0] * 3, [48.0] * 3, v4_path=(1, 2, 3))
        add_dual_series(
            db, 3, [50.0] * 3, [30.0] * 3, v4_path=(1, 2, 3), v6_path=(1, 4, 3)
        )
        groups = group_by_destination(classify_sites(db.freeze(), [1, 2, 3]))
        assert groups[3].category is SiteCategory.SP
        assert groups[3].n_sites == 3

    def test_dl_group_construction_rejected(self):
        from repro.analysis.classify import ASGroup

        with pytest.raises(ValueError):
            ASGroup(asn=1, category=SiteCategory.DL, site_ids=(1,))
