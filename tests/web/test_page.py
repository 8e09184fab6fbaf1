"""Web pages and the 6% identity check."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import AddressFamily
from repro.web.page import WebPage, identical_within, relative_size_difference


class TestWebPage:
    def test_same_content(self):
        page = WebPage.same_content(1000)
        assert page.size(AddressFamily.IPV4) == page.size(AddressFamily.IPV6) == 1000
        assert identical_within(page.v4_bytes, page.v6_bytes, 0.06)
        assert relative_size_difference(page.v4_bytes, page.v6_bytes) == 0.0

    def test_identity_threshold_boundary(self):
        # exactly 6% of the larger page is still identical; 7% is not
        assert relative_size_difference(1000, 940) == pytest.approx(0.06)
        assert identical_within(1000, 940, 0.06)
        assert identical_within(940, 1000, 0.06)
        assert not identical_within(1000, 930, 0.06)

    def test_difference_relative_to_larger(self):
        # Symmetric regardless of which side is bigger.
        assert relative_size_difference(1000, 900) == relative_size_difference(
            900, 1000
        )

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            WebPage(v4_bytes=0, v6_bytes=100)

    @given(st.integers(1, 10**7), st.integers(1, 10**7))
    def test_difference_in_unit_range(self, v4, v6):
        diff = relative_size_difference(v4, v6)
        assert 0.0 <= diff < 1.0
