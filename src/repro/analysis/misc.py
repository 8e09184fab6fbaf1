"""The negative finding of Section 5.5.

"A question of obvious interest is whether sites/ASes that exhibit
better IPv6 performance than IPv4 share some common property. ...
Unfortunately, no such grouping emerged."

``trait_analysis`` repeats that investigation: take the sites where IPv6
beats IPv4, compare each candidate trait's share in that group to the
trait's baseline share among all analysed sites, and report whether any
trait dominates (large lift *and* large support).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from ..data.columnar import ColumnarDatabase
from .classify import SiteClassification
from .metrics import v6_faster

#: Minimum lift over baseline, minimum support (share of the winner
#: group), and minimum absolute winner count for a trait to count as
#: dominant - the count floor keeps one-site flukes from "dominating".
DOMINANCE_LIFT = 1.5
DOMINANCE_SUPPORT = 0.5
DOMINANCE_MIN_COUNT = 3


@dataclass(frozen=True)
class TraitShare:
    """One trait value's prevalence among winners versus baseline."""

    trait: str
    value: Hashable
    winner_share: float
    baseline_share: float
    winner_count: int = 0

    @property
    def lift(self) -> float:
        if self.baseline_share == 0:
            return float("inf") if self.winner_share > 0 else 1.0
        return self.winner_share / self.baseline_share

    @property
    def dominant(self) -> bool:
        return (
            self.lift >= DOMINANCE_LIFT
            and self.winner_share >= DOMINANCE_SUPPORT
            and self.winner_count >= DOMINANCE_MIN_COUNT
        )


@dataclass(frozen=True)
class TraitReport:
    """The Section 5.5 investigation's outcome."""

    n_winners: int
    n_baseline: int
    shares: tuple[TraitShare, ...]

    @property
    def dominant_traits(self) -> tuple[TraitShare, ...]:
        return tuple(s for s in self.shares if s.dominant)

    @property
    def no_dominant_trait(self) -> bool:
        """The paper's finding: no grouping emerged."""
        return not self.dominant_traits


def _shares(values: Iterable[Hashable]) -> dict[Hashable, float]:
    values = list(values)
    if not values:
        return {}
    counts: dict[Hashable, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return {value: count / len(values) for value, count in counts.items()}


def trait_analysis(
    db: ColumnarDatabase,
    classifications: dict[int, SiteClassification],
    extra_traits: dict[str, Callable[[int], Hashable]] | None = None,
) -> TraitReport:
    """Look for a common trait among sites where IPv6 outperforms IPv4.

    Built-in traits: the site's category (DL/SP/DP) and its destination
    AS.  ``extra_traits`` adds custom ones (e.g. region via the catalog):
    each maps a site id to a trait value.
    """
    traits: dict[str, Callable[[int], Hashable]] = {
        "category": lambda sid: classifications[sid].category.value,
        "dest_as": lambda sid: classifications[sid].dest_v4,
    }
    if extra_traits:
        traits.update(extra_traits)

    baseline_ids = sorted(classifications)
    winner_ids = [sid for sid in baseline_ids if v6_faster(db, sid)]

    shares: list[TraitShare] = []
    for trait_name, getter in traits.items():
        baseline = _shares(getter(sid) for sid in baseline_ids)
        winners = _shares(getter(sid) for sid in winner_ids)
        for value, winner_share in winners.items():
            shares.append(
                TraitShare(
                    trait=trait_name,
                    value=value,
                    winner_share=winner_share,
                    baseline_share=baseline.get(value, 0.0),
                    winner_count=round(winner_share * len(winner_ids)),
                )
            )
    shares.sort(key=lambda s: (-s.winner_share, s.trait, str(s.value)))
    return TraitReport(
        n_winners=len(winner_ids),
        n_baseline=len(baseline_ids),
        shares=tuple(shares),
    )
