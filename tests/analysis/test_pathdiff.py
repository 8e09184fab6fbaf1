"""Path comparison utilities."""

from __future__ import annotations

import pytest

from repro.analysis.pathdiff import (
    PathComparison,
    compare_site_paths,
    summarise_divergence,
)

from .conftest import add_dual_series


class TestPathComparison:
    def test_identical(self):
        c = PathComparison(path_v4=(1, 2, 3), path_v6=(1, 2, 3))
        assert c.identical
        assert c.length_delta == 0
        assert c.shared_fraction == 1.0

    def test_fork_in_the_middle(self):
        c = PathComparison(path_v4=(1, 2, 3, 9), path_v6=(1, 4, 5, 9))
        assert not c.identical
        assert c.common_prefix_length == 1
        assert c.common_suffix_length == 1

    def test_length_delta_signs(self):
        longer = PathComparison(path_v4=(1, 2, 9), path_v6=(1, 3, 4, 9))
        shorter = PathComparison(path_v4=(1, 2, 3, 9), path_v6=(1, 9))
        assert longer.length_delta == 1
        assert shorter.length_delta == -2

    def test_shared_fraction(self):
        c = PathComparison(path_v4=(1, 2, 9), path_v6=(1, 3, 9))
        # union {1,2,3,9}, intersection {1,9}.
        assert c.shared_fraction == pytest.approx(0.5)

    def test_suffix_never_exceeds_shorter_path(self):
        c = PathComparison(path_v4=(1, 9), path_v6=(1, 5, 9))
        assert c.common_suffix_length <= 2


class TestCompareSitePaths:
    def test_from_database(self, db):
        add_dual_series(
            db, 1, [50.0] * 3, [40.0] * 3, v4_path=(1, 2, 9), v6_path=(1, 3, 4, 9)
        )
        c = compare_site_paths(db.freeze(), 1)
        assert c is not None
        assert c.length_delta == 1

    def test_missing_data(self, db):
        assert compare_site_paths(db.freeze(), 99) is None


class TestSummariseDivergence:
    def test_aggregates(self, db):
        add_dual_series(db, 1, [50.0] * 3, [49.0] * 3, v4_path=(1, 2, 9))
        add_dual_series(
            db, 2, [50.0] * 3, [30.0] * 3, v4_path=(1, 2, 9), v6_path=(1, 3, 4, 9)
        )
        summary = summarise_divergence(db.freeze(), [1, 2])
        assert summary.n_sites == 2
        assert summary.n_identical == 1
        assert summary.mean_length_delta == pytest.approx(0.5)
        assert summary.delta_histogram == {0: 1, 1: 1}

    def test_empty(self, db):
        summary = summarise_divergence(db.freeze(), [])
        assert summary.n_sites == 0
        assert summary.n_identical == 0
