"""AS-path comparison utilities.

Section 5.4 reasons about *how* IPv6 and IPv4 paths differ, not just
whether they do.  These helpers quantify the difference for a DP site:
where the paths fork, how much they share, and how their lengths
compare — feeding the per-vantage divergence summaries and the Table 7
interpretation (apparent shortening by tunnels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..data.columnar import ColumnarDatabase
from ..data.series import modal_as_path
from ..net.addresses import AddressFamily


@dataclass(frozen=True)
class PathComparison:
    """Structural comparison of one site's IPv4 and IPv6 AS paths."""

    path_v4: tuple[int, ...]
    path_v6: tuple[int, ...]

    @property
    def identical(self) -> bool:
        return self.path_v4 == self.path_v6

    @property
    def length_delta(self) -> int:
        """IPv6 hops minus IPv4 hops (negative = v6 looks shorter)."""
        return len(self.path_v6) - len(self.path_v4)

    @property
    def common_prefix_length(self) -> int:
        """Shared leading ASes (both start at the vantage AS)."""
        n = 0
        for a, b in zip(self.path_v4, self.path_v6):
            if a != b:
                break
            n += 1
        return n

    @property
    def common_suffix_length(self) -> int:
        """Shared trailing ASes (both end at the destination for SL sites)."""
        n = 0
        for a, b in zip(reversed(self.path_v4), reversed(self.path_v6)):
            if a != b:
                break
            n += 1
        return min(n, min(len(self.path_v4), len(self.path_v6)))

    @property
    def shared_fraction(self) -> float:
        """Jaccard similarity of the AS sets (structure-free overlap)."""
        a, b = set(self.path_v4), set(self.path_v6)
        union = a | b
        if not union:
            return 1.0
        return len(a & b) / len(union)


def compare_site_paths(
    db: ColumnarDatabase, site_id: int
) -> PathComparison | None:
    """Compare a site's modal IPv4 and IPv6 paths; None without data."""
    v4 = modal_as_path(db, site_id, AddressFamily.IPV4)
    v6 = modal_as_path(db, site_id, AddressFamily.IPV6)
    if v4 is None or v6 is None:
        return None
    return PathComparison(path_v4=v4, path_v6=v6)


@dataclass(frozen=True)
class DivergenceSummary:
    """Aggregate divergence statistics over a site population."""

    n_sites: int
    n_identical: int
    mean_length_delta: float
    mean_shared_fraction: float
    #: histogram of length deltas, ``{delta: count}``.
    delta_histogram: dict[int, int]


def summarise_divergence(
    db: ColumnarDatabase, site_ids: Iterable[int]
) -> DivergenceSummary:
    """Summarise path divergence across ``site_ids`` (DP sites, typically)."""
    comparisons = [
        c for c in (compare_site_paths(db, sid) for sid in site_ids)
        if c is not None
    ]
    if not comparisons:
        return DivergenceSummary(0, 0, 0.0, 0.0, {})
    histogram: dict[int, int] = {}
    for c in comparisons:
        histogram[c.length_delta] = histogram.get(c.length_delta, 0) + 1
    return DivergenceSummary(
        n_sites=len(comparisons),
        n_identical=sum(c.identical for c in comparisons),
        mean_length_delta=(
            sum(c.length_delta for c in comparisons) / len(comparisons)
        ),
        mean_shared_fraction=(
            sum(c.shared_fraction for c in comparisons) / len(comparisons)
        ),
        delta_histogram=dict(sorted(histogram.items())),
    )
