"""Zero-mode detection.

When an AS's overall IPv6 performance is worse than IPv4 even though the
paths coincide, the paper checks the *distribution* of per-site
differences for a mode around zero: "a zero-mode is claimed if there is
at least one site for which this difference is within 10% of IPv4
performance".  Sites in the zero-mode have healthy servers; the laggards
drag the AS mean down — implicating the servers (S), not the network (D).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..data.columnar import ColumnarDatabase
from .metrics import site_relative_difference


def relative_differences(
    db: ColumnarDatabase, site_ids: Iterable[int]
) -> dict[int, float]:
    """Per-site ``(v6 - v4)/v4`` for every site with data."""
    out: dict[int, float] = {}
    for site_id in site_ids:
        diff = site_relative_difference(db, site_id)
        if diff is not None:
            out[site_id] = diff
    return out


def has_zero_mode(diffs: Sequence[float], threshold: float = 0.10) -> bool:
    """The paper's criterion: at least one difference within ``threshold``."""
    return any(abs(d) <= threshold for d in diffs)


def zero_mode_sites(
    diffs: dict[int, float], threshold: float = 0.10
) -> list[int]:
    """Sites belonging to the zero-mode (|diff| within the threshold).

    These are the "servers known to perform well in IPv6" the paper later
    reuses to rule out server effects at other vantage points.
    """
    return sorted(sid for sid, d in diffs.items() if abs(d) <= threshold)
