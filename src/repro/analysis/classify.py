"""Site and destination-AS classification (the paper's Fig 4).

Sites are first partitioned by *location*: SL (same AS hosts the A and
AAAA addresses) versus DL (different locations, typically v4-only CDN
users).  SL sites then split by *path*: SP (the IPv6 and IPv4 AS paths
coincide) versus DP (they differ).  The same split is lifted to the
destination-AS level, which is the unit H1 and H2 are evaluated on.

Beyond the paper: when the scenario's NAT64/DNS64 axis is on, the
two-way native/tunneled view of IPv6 reachability becomes the three-way
:class:`TransitionKind` split (native / tunneled / translated), derived
from the monitor's recorded transitions table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from ..data.columnar import ColumnarDatabase
from ..data.columnar import columnar_view  # noqa: F401  (a perfbench timer target)
from ..data.series import dest_asn, modal_as_path
from ..net.addresses import AddressFamily
from ..obs import span


class SiteCategory(Enum):
    """The paper's three site buckets."""

    DL = "DL"  # different locations (v4 and v6 in different ASes)
    SP = "SP"  # same location, same AS path
    DP = "DP"  # same location, different AS paths

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class SiteClassification:
    """One site's category plus the evidence it was derived from."""

    site_id: int
    category: SiteCategory
    dest_v4: int
    dest_v6: int
    path_v4: tuple[int, ...]
    path_v6: tuple[int, ...]


def classify_site(
    db: ColumnarDatabase, site_id: int
) -> SiteClassification | None:
    """Classify one site from its recorded paths; None without path data.

    Uses the *modal* AS path per family (path-change sites are classified
    by the path they used most of the time, as the paper effectively does
    by comparing stable AS-path snapshots).
    """
    dest_v4 = dest_asn(db, site_id, AddressFamily.IPV4)
    dest_v6 = dest_asn(db, site_id, AddressFamily.IPV6)
    path_v4 = modal_as_path(db, site_id, AddressFamily.IPV4)
    path_v6 = modal_as_path(db, site_id, AddressFamily.IPV6)
    if dest_v4 is None or dest_v6 is None or path_v4 is None or path_v6 is None:
        return None
    if dest_v4 != dest_v6:
        category = SiteCategory.DL
    elif path_v4 == path_v6:
        category = SiteCategory.SP
    else:
        category = SiteCategory.DP
    return SiteClassification(
        site_id=site_id,
        category=category,
        dest_v4=dest_v4,
        dest_v6=dest_v6,
        path_v4=path_v4,
        path_v6=path_v6,
    )


def classify_sites(
    db: ColumnarDatabase, site_ids: Iterable[int]
) -> dict[int, SiteClassification]:
    """Classify many sites, skipping those without path data."""
    with span("analysis.classify", vantage=db.vantage_name):
        out: dict[int, SiteClassification] = {}
        for site_id in site_ids:
            classification = classify_site(db, site_id)
            if classification is not None:
                out[site_id] = classification
        return out


def sites_in_category(
    classifications: dict[int, SiteClassification], category: SiteCategory
) -> list[int]:
    return sorted(
        sid for sid, c in classifications.items() if c.category is category
    )


@dataclass(frozen=True)
class ASGroup:
    """A destination AS with its SL sites and its SP/DP verdict.

    An AS lands in SP when its sites' v4 and v6 paths coincide; sites
    whose paths flipped mid-campaign can dissent, so the verdict follows
    the majority of the AS's sites.
    """

    asn: int
    category: SiteCategory  # SP or DP only
    site_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.category is SiteCategory.DL:
            raise ValueError("AS groups exist only for SL (SP/DP) sites")

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)


def group_by_destination(
    classifications: dict[int, SiteClassification],
) -> dict[int, ASGroup]:
    """Group SL sites by destination AS and derive each AS's SP/DP label."""
    members: dict[int, list[int]] = {}
    sp_votes: dict[int, int] = {}
    for sid, c in classifications.items():
        if c.category is SiteCategory.DL:
            continue
        members.setdefault(c.dest_v4, []).append(sid)
        if c.category is SiteCategory.SP:
            sp_votes[c.dest_v4] = sp_votes.get(c.dest_v4, 0) + 1
    groups: dict[int, ASGroup] = {}
    for asn, sids in members.items():
        sp = sp_votes.get(asn, 0)
        category = SiteCategory.SP if sp * 2 >= len(sids) else SiteCategory.DP
        groups[asn] = ASGroup(
            asn=asn, category=category, site_ids=tuple(sorted(sids))
        )
    return groups


def groups_in_category(
    groups: dict[int, ASGroup], category: SiteCategory
) -> list[ASGroup]:
    return sorted(
        (g for g in groups.values() if g.category is category),
        key=lambda g: g.asn,
    )


class TransitionKind(Enum):
    """How a site's IPv6 traffic crosses the v6 Internet.

    NATIVE and TUNNELED refine the old implicit two-way reachability
    view; TRANSLATED marks sites reached only through a NAT64 gateway,
    i.e. their AAAA answer was DNS64-synthesized from an A record.
    """

    NATIVE = "native"
    TUNNELED = "tunneled"
    TRANSLATED = "translated"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def classify_transitions(
    db: ColumnarDatabase, site_ids: Iterable[int] | None = None
) -> dict[int, TransitionKind]:
    """Latest-observed transition kind per site (the three-way split).

    A site that adopts native IPv6 mid-campaign moves from TRANSLATED
    to NATIVE: classification follows its most recent round.
    Sites without transition rows (transition recording off, or the
    site never measured over v6) are omitted.
    """
    with span("analysis.transitions", vantage=db.vantage_name):
        table = db.table("transitions")
        kinds = table.column("transition").values_list()
        latest: dict[int, str] = dict(zip(table.column("site_id").values, kinds))
        if site_ids is not None:
            wanted = set(site_ids)
            latest = {sid: k for sid, k in latest.items() if sid in wanted}
        return {
            sid: TransitionKind(kind) for sid, kind in sorted(latest.items())
        }


def transition_split(
    classifications: dict[int, TransitionKind],
) -> dict[TransitionKind, int]:
    """Site counts per transition kind, every kind present (zeros kept)."""
    counts = {kind: 0 for kind in TransitionKind}
    for kind in classifications.values():
        counts[kind] += 1
    return counts


def sites_in_transition(
    classifications: dict[int, TransitionKind], kind: TransitionKind
) -> list[int]:
    return sorted(sid for sid, k in classifications.items() if k is kind)
