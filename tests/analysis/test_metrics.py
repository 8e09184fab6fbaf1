"""Per-site performance metrics."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import (
    fraction_v6_faster,
    site_mean_speed,
    site_relative_difference,
    v6_faster,
)

from .conftest import V4, V6, add_dual_series, add_series


class TestSiteMeanSpeed:
    def test_mean_of_rounds(self, db):
        add_series(db, 1, V4, [10.0, 20.0, 30.0])
        assert site_mean_speed(db.freeze(), 1, V4) == pytest.approx(20.0)

    def test_missing_data_is_none(self, db):
        assert site_mean_speed(db.freeze(), 1, V4) is None


class TestRelativeDifference:
    def test_v6_slower(self, db):
        add_dual_series(db, 1, [100.0] * 3, [80.0] * 3)
        assert site_relative_difference(db.freeze(), 1) == pytest.approx(-0.2)
        assert v6_faster(db.freeze(), 1) is False

    def test_v6_faster(self, db):
        add_dual_series(db, 1, [100.0] * 3, [110.0] * 3)
        assert site_relative_difference(db.freeze(), 1) == pytest.approx(0.1)
        assert v6_faster(db.freeze(), 1) is True

    def test_one_family_missing(self, db):
        add_series(db, 1, V4, [100.0] * 3)
        assert site_relative_difference(db.freeze(), 1) is None
        assert v6_faster(db.freeze(), 1) is None


class TestFractionV6Faster:
    def test_mixed_population(self, db):
        add_dual_series(db, 1, [100.0] * 3, [110.0] * 3)
        add_dual_series(db, 2, [100.0] * 3, [90.0] * 3)
        add_dual_series(db, 3, [100.0] * 3, [120.0] * 3)
        assert fraction_v6_faster(db.freeze(), [1, 2, 3]) == pytest.approx(2 / 3)

    def test_skips_undecidable_sites(self, db):
        add_dual_series(db, 1, [100.0] * 3, [110.0] * 3)
        add_series(db, 2, V4, [100.0] * 3)
        assert fraction_v6_faster(db.freeze(), [1, 2]) == pytest.approx(1.0)

    def test_empty_is_none(self, db):
        assert fraction_v6_faster(db.freeze(), []) is None
