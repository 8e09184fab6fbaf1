"""'Good AS' coverage of DP paths (Table 13).

To rule out the data plane (D) as the cause of poor DP performance, the
paper checks whether the ASes along a DP destination's IPv6 path also
appear on *good* IPv6 paths — paths to SP destinations whose IPv6 and
IPv4 performance was comparable.  An AS present on a good path cannot be
degrading IPv6 forwarding (it would degrade the good path too).  Table 13
buckets DP paths by the fraction of their ASes that are known-good.
"""

from __future__ import annotations

from typing import Iterable

from ..data.columnar import ColumnarDatabase
from ..data.series import modal_as_path
from ..net.addresses import AddressFamily
from .classify import ASGroup
from .hypotheses import ASEvaluation, ASVerdict

#: Table 13's coverage buckets (lower bound inclusive, upper exclusive,
#: except the exact-100% bucket).
GOODNESS_BUCKETS = ("100%", "[75%,100%)", "[50%,75%)", "[25%,50%)", "[0%,25%)")


def collect_good_ases(
    per_vantage: dict[str, tuple[ColumnarDatabase, dict[int, ASEvaluation]]],
) -> set[int]:
    """ASes found on any good IPv6 path, across all vantage points.

    A good path is the IPv6 path to an SP destination AS whose verdict is
    COMPARABLE; every AS on it (the vantage's own AS excluded) is good.
    """
    good: set[int] = set()
    for db, evaluations in per_vantage.values():
        for asn, evaluation in evaluations.items():
            if evaluation.verdict is not ASVerdict.COMPARABLE:
                continue
            # Any site of the AS carries the (shared) v6 path.
            for site_id in evaluation.zero_mode_site_ids or ():
                path = modal_as_path(db, site_id, AddressFamily.IPV6)
                if path is not None:
                    good.update(path[1:])
                    break
            else:
                good.add(asn)
    return good


def dp_path_goodness(
    db: ColumnarDatabase,
    dp_groups: Iterable[ASGroup],
    good_ases: set[int],
) -> dict[int, float]:
    """Per DP destination AS, the fraction of its v6-path ASes that are good.

    The path evaluated is the IPv6 path of any site in the AS (they share
    it); the vantage's own AS is excluded from the denominator.
    """
    out: dict[int, float] = {}
    for group in dp_groups:
        path = None
        for site_id in group.site_ids:
            path = modal_as_path(db, site_id, AddressFamily.IPV6)
            if path is not None:
                break
        if path is None or len(path) < 2:
            continue
        crossed = path[1:]
        n_good = sum(1 for asn in crossed if asn in good_ases)
        out[group.asn] = n_good / len(crossed)
    return out


def goodness_bucket(fraction: float) -> str:
    """Map a coverage fraction to its Table 13 bucket."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"coverage fraction out of range: {fraction}")
    if fraction == 1.0:
        return "100%"
    if fraction >= 0.75:
        return "[75%,100%)"
    if fraction >= 0.50:
        return "[50%,75%)"
    if fraction >= 0.25:
        return "[25%,50%)"
    return "[0%,25%)"


def goodness_buckets(fractions: Iterable[float]) -> dict[str, float]:
    """Share of DP paths per coverage bucket (the rows of Table 13)."""
    fractions = list(fractions)
    counts = {bucket: 0 for bucket in GOODNESS_BUCKETS}
    for fraction in fractions:
        counts[goodness_bucket(fraction)] += 1
    total = len(fractions)
    if total == 0:
        return {bucket: 0.0 for bucket in GOODNESS_BUCKETS}
    return {bucket: counts[bucket] / total for bucket in GOODNESS_BUCKETS}
