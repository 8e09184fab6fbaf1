"""Cross-vantage checks and known-good site extraction."""

from __future__ import annotations

from repro.analysis.crosscheck import cross_check, known_good_sites
from repro.analysis.hypotheses import ASEvaluation, ASVerdict


def evaluation(asn: int, verdict: ASVerdict, zm=(1,)) -> ASEvaluation:
    return ASEvaluation(
        asn=asn,
        verdict=verdict,
        n_sites=3,
        v4_speed=100.0,
        v6_speed=90.0,
        zero_mode_site_ids=tuple(zm),
    )


class TestCrossCheck:
    def test_agreement_is_positive(self):
        result = cross_check(
            {
                "A": {3: evaluation(3, ASVerdict.COMPARABLE)},
                "B": {3: evaluation(3, ASVerdict.COMPARABLE)},
            }
        )
        assert result.checkable_ases == 1
        assert result.positive == 1
        assert result.negative == 0

    def test_disagreement_is_negative(self):
        result = cross_check(
            {
                "A": {3: evaluation(3, ASVerdict.COMPARABLE)},
                "B": {3: evaluation(3, ASVerdict.ZERO_MODE)},
            }
        )
        assert result.negative == 1
        assert result.conflicts == (3,)

    def test_single_vantage_as_not_checkable(self):
        result = cross_check(
            {
                "A": {3: evaluation(3, ASVerdict.COMPARABLE)},
                "B": {4: evaluation(4, ASVerdict.COMPARABLE)},
            }
        )
        assert result.checkable_ases == 0
        assert result.positive == result.negative == 0  # nothing to check

    def test_three_vantages_mixed(self):
        result = cross_check(
            {
                "A": {3: evaluation(3, ASVerdict.COMPARABLE), 4: evaluation(4, ASVerdict.SMALL_N)},
                "B": {3: evaluation(3, ASVerdict.COMPARABLE), 4: evaluation(4, ASVerdict.SMALL_N)},
                "C": {3: evaluation(3, ASVerdict.WORSE)},
            }
        )
        assert result.checkable_ases == 2
        assert result.positive == 1
        assert result.negative == 1


class TestKnownGoodSites:
    def test_collects_from_comparable_and_zero_mode(self):
        good = known_good_sites(
            {
                "A": {3: evaluation(3, ASVerdict.COMPARABLE, zm=(1, 2))},
                "B": {
                    3: evaluation(3, ASVerdict.ZERO_MODE, zm=(2, 5)),
                    4: evaluation(4, ASVerdict.WORSE, zm=()),
                },
            }
        )
        assert good[3] == {1, 2, 5}
        assert good[4] == set()
