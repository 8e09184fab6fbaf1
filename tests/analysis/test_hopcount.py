"""Hop-count bucketing (Tables 7 and 9)."""

from __future__ import annotations

import pytest

from repro.analysis.hopcount import BUCKETS, bucket_of, performance_by_hopcount

from .conftest import V4, V6, add_dual_series


class TestBucketOf:
    @pytest.mark.parametrize(
        "hops,expected",
        [(1, "1"), (2, "2"), (3, "3"), (4, "4"), (5, ">=5"), (9, ">=5")],
    )
    def test_mapping(self, hops, expected):
        assert bucket_of(hops) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bucket_of(0)


class TestPerformanceByHopcount:
    def test_families_bucket_independently(self, db):
        # v4 path has 2 hops, v6 path 4 hops.
        add_dual_series(
            db,
            1,
            [60.0] * 3,
            [30.0] * 3,
            v4_path=(1, 2, 3),
            v6_path=(1, 4, 5, 6, 3),
        )
        table = performance_by_hopcount(db.freeze(), [1])
        assert table[V4]["2"].n_sites == 1
        assert table[V4]["2"].mean_speed == pytest.approx(60.0)
        assert table[V6]["4"].n_sites == 1
        assert table[V6]["4"].mean_speed == pytest.approx(30.0)
        assert table[V4]["4"].n_sites == 0
        assert table[V4]["4"].mean_speed is None

    def test_bucket_averages(self, db):
        add_dual_series(db, 1, [60.0] * 3, [60.0] * 3, v4_path=(1, 2, 3))
        add_dual_series(db, 2, [40.0] * 3, [40.0] * 3, v4_path=(1, 2, 9))
        table = performance_by_hopcount(db.freeze(), [1, 2])
        assert table[V4]["2"].n_sites == 2
        assert table[V4]["2"].mean_speed == pytest.approx(50.0)

    def test_open_bucket_pools_long_paths(self, db):
        add_dual_series(db, 1, [20.0] * 3, [20.0] * 3, v4_path=(1, 2, 3, 4, 5, 6))
        add_dual_series(db, 2, [10.0] * 3, [10.0] * 3, v4_path=(1, 2, 3, 4, 5, 6, 7, 8))
        table = performance_by_hopcount(db.freeze(), [1, 2])
        assert table[V4][">=5"].n_sites == 2
        assert table[V4][">=5"].mean_speed == pytest.approx(15.0)

    def test_all_buckets_present(self, db):
        table = performance_by_hopcount(db.freeze(), [])
        assert list(table[V4]) == list(BUCKETS)

    def test_sites_without_speed_skipped(self, db):
        from .conftest import add_series

        add_series(db, 1, V4, [50.0] * 3)  # no v6 data
        table = performance_by_hopcount(db.freeze(), [1])
        assert table[V4]["2"].n_sites == 1
        assert table[V6]["2"].n_sites == 0
