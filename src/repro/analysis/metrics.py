"""Per-site performance summaries.

"A site's overall performance is obtained by averaging samples gathered
over many months" — these helpers compute that average (per family) and
the derived quantities every later step consumes: the relative v6-v4
difference and the "is IPv6 faster" indicator (Fig 3b).
"""

from __future__ import annotations

from ..data.columnar import ColumnarDatabase
from ..data.series import mean_speed
from ..net.addresses import AddressFamily


def site_mean_speed(
    db: ColumnarDatabase, site_id: int, family: AddressFamily
) -> float | None:
    """Mean of the site's per-round average speeds; None without data."""
    return mean_speed(db, site_id, family)


def site_relative_difference(
    db: ColumnarDatabase, site_id: int
) -> float | None:
    """``(v6 - v4) / v4`` of the site's mean speeds; None without data.

    Positive values mean IPv6 is faster.  Anchored on IPv4 like every
    comparison in the paper.
    """
    v4 = site_mean_speed(db, site_id, AddressFamily.IPV4)
    v6 = site_mean_speed(db, site_id, AddressFamily.IPV6)
    if v4 is None or v6 is None or v4 == 0:
        return None
    return (v6 - v4) / v4


def v6_faster(db: ColumnarDatabase, site_id: int) -> bool | None:
    """True when the site's mean IPv6 speed beats IPv4; None without data."""
    diff = site_relative_difference(db, site_id)
    if diff is None:
        return None
    return diff > 0.0


def fraction_v6_faster(db: ColumnarDatabase, site_ids) -> float | None:
    """Share of sites where IPv6 downloads are faster (Fig 3b's metric)."""
    verdicts = [v6_faster(db, sid) for sid in site_ids]
    verdicts = [v for v in verdicts if v is not None]
    if not verdicts:
        return None
    return sum(verdicts) / len(verdicts)
