"""Zero-mode detection."""

from __future__ import annotations

import pytest

from repro.analysis.zeromode import (
    has_zero_mode,
    relative_differences,
    zero_mode_sites,
)

from .conftest import add_dual_series


class TestHasZeroMode:
    def test_detects_value_near_zero(self):
        assert has_zero_mode([-0.4, -0.05, -0.5])
        assert has_zero_mode([0.09])

    def test_no_mode_when_all_far(self):
        assert not has_zero_mode([-0.4, -0.2, 0.5])

    def test_boundary_inclusive(self):
        assert has_zero_mode([0.10], threshold=0.10)
        assert not has_zero_mode([0.1001], threshold=0.10)

    def test_empty(self):
        assert not has_zero_mode([])


class TestRelativeDifferences:
    def test_computed_per_site(self, db):
        add_dual_series(db, 1, [100.0] * 3, [50.0] * 3)
        add_dual_series(db, 2, [100.0] * 3, [98.0] * 3)
        diffs = relative_differences(db.freeze(), [1, 2, 99])
        assert diffs[1] == pytest.approx(-0.5)
        assert diffs[2] == pytest.approx(-0.02)
        assert 99 not in diffs

    def test_zero_mode_sites_selected(self, db):
        add_dual_series(db, 1, [100.0] * 3, [50.0] * 3)
        add_dual_series(db, 2, [100.0] * 3, [98.0] * 3)
        add_dual_series(db, 3, [100.0] * 3, [105.0] * 3)
        diffs = relative_differences(db.freeze(), [1, 2, 3])
        assert zero_mode_sites(diffs) == [2, 3]
