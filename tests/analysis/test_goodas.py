"""'Good AS' coverage of DP paths (Table 13)."""

from __future__ import annotations

import pytest

from repro.analysis.classify import ASGroup, SiteCategory
from repro.analysis.goodas import (
    GOODNESS_BUCKETS,
    collect_good_ases,
    dp_path_goodness,
    goodness_bucket,
    goodness_buckets,
)
from repro.analysis.hypotheses import ASEvaluation, ASVerdict
from repro.monitor.database import MeasurementDatabase

from .conftest import add_dual_series


class TestGoodnessBucket:
    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (1.0, "100%"),
            (0.9, "[75%,100%)"),
            (0.75, "[75%,100%)"),
            (0.6, "[50%,75%)"),
            (0.3, "[25%,50%)"),
            (0.0, "[0%,25%)"),
        ],
    )
    def test_mapping(self, fraction, expected):
        assert goodness_bucket(fraction) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            goodness_bucket(1.2)

    def test_buckets_sum_to_one(self):
        shares = goodness_buckets([1.0, 0.8, 0.6, 0.6, 0.1])
        assert sum(shares.values()) == pytest.approx(1.0)
        assert list(shares) == list(GOODNESS_BUCKETS)

    def test_empty_fractions(self):
        shares = goodness_buckets([])
        assert all(v == 0.0 for v in shares.values())


class TestCollectGoodAses:
    def test_v6_path_members_of_comparable_as(self, db):
        add_dual_series(db, 1, [100.0] * 3, [98.0] * 3, v4_path=(1, 2, 3))
        evaluation = ASEvaluation(
            asn=3,
            verdict=ASVerdict.COMPARABLE,
            n_sites=1,
            v4_speed=100.0,
            v6_speed=98.0,
            zero_mode_site_ids=(1,),
        )
        good = collect_good_ases({"A": (db.freeze(), {3: evaluation})})
        assert good == {2, 3}

    def test_non_comparable_contributes_nothing(self, db):
        add_dual_series(db, 1, [100.0] * 3, [50.0] * 3, v4_path=(1, 2, 3))
        evaluation = ASEvaluation(
            asn=3,
            verdict=ASVerdict.WORSE,
            n_sites=1,
            v4_speed=100.0,
            v6_speed=50.0,
            zero_mode_site_ids=(),
        )
        assert collect_good_ases({"A": (db.freeze(), {3: evaluation})}) == set()


class TestDpPathGoodness:
    def test_fraction_of_good_ases(self, db):
        add_dual_series(
            db, 1, [100.0] * 3, [40.0] * 3,
            v4_path=(1, 9, 7), v6_path=(1, 2, 4, 7),
        )
        group = ASGroup(asn=7, category=SiteCategory.DP, site_ids=(1,))
        fractions = dp_path_goodness(db.freeze(), [group], good_ases={2, 7})
        # v6 path crosses (2, 4, 7): 2 and 7 good -> 2/3.
        assert fractions[7] == pytest.approx(2 / 3)

    def test_as_without_v6_path_skipped(self):
        db = MeasurementDatabase(vantage_name="T")
        group = ASGroup(asn=7, category=SiteCategory.DP, site_ids=(1,))
        assert dp_path_goodness(db.freeze(), [group], good_ases=set()) == {}
