"""Performance by AS-path hop count (Tables 7 and 9).

Sites are bucketed by the length of their recorded AS path — separately
per family, because in the DL+DP population (Table 7) the IPv6 path may
be a different length than the IPv4 one.  The interesting artifact the
buckets expose: tunnels make IPv6 paths *look* 1-2 hops long while the
underlying forwarding detour is longer, so short-bucket IPv6 performance
is anomalously poor; as hop counts grow (and tunnels become unlikely)
IPv6 converges to IPv4 — evidence for H1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..data.columnar import ColumnarDatabase
from ..data.columnar import columnar_view  # noqa: F401  (a perfbench timer target)
from ..data.series import mean_speed as series_mean_speed
from ..data.series import modal_as_path
from ..net.addresses import AddressFamily

#: Bucket labels in table order; the last is open-ended.
BUCKETS = ("1", "2", "3", "4", ">=5")


def bucket_of(hops: int) -> str:
    """Map a hop count to its table bucket."""
    if hops < 1:
        raise ValueError(f"hop counts start at 1, got {hops}")
    if hops >= 5:
        return ">=5"
    return str(hops)


@dataclass(frozen=True)
class HopBucket:
    """One (family, bucket) cell: mean speed and population."""

    family: AddressFamily
    bucket: str
    n_sites: int
    mean_speed: float | None


def performance_by_hopcount(
    db: ColumnarDatabase, site_ids: Iterable[int]
) -> dict[AddressFamily, dict[str, HopBucket]]:
    """Bucketed mean speeds per family for the given sites.

    Hop count of a site-family is ``len(modal AS path) - 1`` (an
    adjacent destination is 1 hop).  Sites without a path or without
    speed data in a family are skipped for that family.
    """
    sums: dict[tuple[AddressFamily, str], float] = {}
    counts: dict[tuple[AddressFamily, str], int] = {}
    for site_id in site_ids:
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            path = modal_as_path(db, site_id, family)
            speed = series_mean_speed(db, site_id, family)
            if path is None or speed is None or len(path) < 2:
                continue
            bucket = bucket_of(len(path) - 1)
            key = (family, bucket)
            sums[key] = sums.get(key, 0.0) + speed
            counts[key] = counts.get(key, 0) + 1

    out: dict[AddressFamily, dict[str, HopBucket]] = {}
    for family in (AddressFamily.IPV4, AddressFamily.IPV6):
        row: dict[str, HopBucket] = {}
        for bucket in BUCKETS:
            key = (family, bucket)
            n = counts.get(key, 0)
            row[bucket] = HopBucket(
                family=family,
                bucket=bucket,
                n_sites=n,
                mean_speed=(sums[key] / n) if n else None,
            )
        out[family] = row
    return out
