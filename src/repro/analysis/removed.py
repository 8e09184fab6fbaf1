"""The removed-site bias audit (Table 5).

Removing sites that miss the confidence target could bias the H1/H2
analysis.  The paper audits this by classifying every removed site (that
had enough samples to judge) into SP/DP/DL and into good (IPv6 within
10% of IPv4, or better) versus bad relative IPv6 performance, then
arguing the imbalances are small or conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.columnar import ColumnarDatabase
from .classify import SiteCategory, classify_site
from .confidence import RemovalReason, SiteScreening
from .metrics import site_relative_difference


@dataclass(frozen=True)
class RemovedSiteAudit:
    """Counts of removed sites by (category, performance) — a Table 5 column."""

    vantage_name: str
    sp_good: int
    sp_bad: int
    dp_good: int
    dp_bad: int
    dl_good: int
    dl_bad: int

    def count(self, category: SiteCategory, good: bool) -> int:
        return {
            (SiteCategory.SP, True): self.sp_good,
            (SiteCategory.SP, False): self.sp_bad,
            (SiteCategory.DP, True): self.dp_good,
            (SiteCategory.DP, False): self.dp_bad,
            (SiteCategory.DL, True): self.dl_good,
            (SiteCategory.DL, False): self.dl_bad,
        }[(category, good)]

    @property
    def total(self) -> int:
        return (
            self.sp_good + self.sp_bad + self.dp_good
            + self.dp_bad + self.dl_good + self.dl_bad
        )


def audit_removed_sites(
    vantage_name: str,
    db: ColumnarDatabase,
    screenings: dict[int, SiteScreening],
    comparable_threshold: float = 0.10,
) -> RemovedSiteAudit:
    """Build Table 5's column for one vantage point.

    Only removals with sufficient samples are auditable ("sites for which
    sufficient samples were available, i.e., the last four columns of
    Table 3"); insufficient-sample sites are skipped.
    """
    counts = {
        (category, good): 0
        for category in SiteCategory
        for good in (True, False)
    }
    for site_id, screening in screenings.items():
        if screening.kept:
            continue
        if screening.reason is RemovalReason.INSUFFICIENT_SAMPLES:
            continue
        classification = classify_site(db, site_id)
        diff = site_relative_difference(db, site_id)
        if classification is None or diff is None:
            continue
        good = diff >= -comparable_threshold
        counts[(classification.category, good)] += 1
    return RemovedSiteAudit(
        vantage_name=vantage_name,
        sp_good=counts[(SiteCategory.SP, True)],
        sp_bad=counts[(SiteCategory.SP, False)],
        dp_good=counts[(SiteCategory.DP, True)],
        dp_bad=counts[(SiteCategory.DP, False)],
        dl_good=counts[(SiteCategory.DL, True)],
        dl_bad=counts[(SiteCategory.DL, False)],
    )
