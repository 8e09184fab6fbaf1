"""The ranked site list with churn."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.sites.ranking import SiteRanking


def make_ranking(universe=200, list_size=100, churn=0.1, seed=5) -> SiteRanking:
    return SiteRanking(
        universe_size=universe,
        list_size=list_size,
        churn_rate=churn,
        rng=random.Random(seed),
    )


class TestSiteRanking:
    def test_round_zero_is_most_popular_prefix(self):
        ranking = make_ranking()
        assert ranking.list_at_round(0) == list(range(100))

    def test_lists_are_stable_once_generated(self):
        ranking = make_ranking()
        a = ranking.list_at_round(3)
        _ = ranking.list_at_round(7)
        assert ranking.list_at_round(3) == a

    def test_order_of_queries_does_not_matter(self):
        a = make_ranking()
        b = make_ranking()
        _ = a.list_at_round(5)  # generated forward
        later_first = b.list_at_round(5)
        assert a.list_at_round(5) == later_first

    def test_churn_replaces_expected_count(self):
        ranking = make_ranking(churn=0.1)
        r0 = set(ranking.list_at_round(0))
        r1 = set(ranking.list_at_round(1))
        assert len(r0 - r1) == 10
        assert len(r1 - r0) == 10

    def test_zero_churn_is_static(self):
        ranking = make_ranking(churn=0.0)
        assert ranking.list_at_round(0) == ranking.list_at_round(9)

    def test_list_size_is_constant(self):
        ranking = make_ranking()
        for r in range(8):
            listing = ranking.list_at_round(r)
            assert len(listing) == 100
            assert len(set(listing)) == 100

    def test_newcomers_come_from_reserve(self):
        ranking = make_ranking()
        seen = set().union(*(ranking.list_at_round(r) for r in range(7)))
        assert seen <= set(range(200))
        assert len(seen) > 100

    def test_reserve_exhaustion_stops_churn(self):
        ranking = make_ranking(universe=110, list_size=100, churn=0.1)
        # Only 10 reserve ids; churn stops after they are consumed.
        r1 = set(ranking.list_at_round(1))
        r2 = set(ranking.list_at_round(2))
        assert r2 == r1  # reserve empty -> no further churn

    def test_rank_of(self):
        ranking = make_ranking()
        listing = ranking.list_at_round(0)
        assert len(listing) == 100
        assert 199 not in listing  # reserve ids start unranked

    def test_first_appearance(self):
        ranking = make_ranking()
        assert 0 in ranking.list_at_round(0)
        # A reserve site appears only once churned in, never in round 0.
        assert 150 not in ranking.list_at_round(0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_ranking(universe=50, list_size=100)
        with pytest.raises(ConfigError):
            make_ranking(churn=1.0)
        ranking = make_ranking()
        with pytest.raises(ConfigError):
            ranking.list_at_round(-1)
