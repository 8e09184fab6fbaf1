"""Plan phase of the batched round: enumerate the site batch, no RNG.

On a fault-free world everything that decides a site's fate this round —
its A/AAAA answers, whether both families have forwarding paths, whether
the two pages are byte-identical — is a pure function of (site, round):
none of it touches the vantage's shared RNG stream or the simulated
clock.  :func:`build_round_plan` therefore resolves the whole batch up
front: the :class:`~repro.batch.dnsplan.PairResolver` files every site
as dual-stack or not (re-resolving only the sites whose DNS changed),
then two :meth:`~repro.web.http.HttpClient.open_many` sweeps open the
sessions (IPv4 for every dual-stack site, then IPv6 only where IPv4 was
reachable, exactly the order the scalar opens probed reachability in),
and the page-identity comparison straight off the pinned endpoints.

What remains for the execute phase is everything order-sensitive: the
worker-pool schedule, the shared-RNG draws, and the download loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..monitor.database import DnsObservation, PageCheck
from ..net.addresses import AddressFamily
from ..web.http import DownloadSession
from .dnsplan import PairResolver

#: site classifications, in scalar-bailout order.  UNREACHABLE_V6 differs
#: from UNREACHABLE_V4 only in draw accounting: the scalar path discovers
#: a v6-dark destination *after* the IPv4 identity probe consumed its
#: shared-RNG draw, so the execute phase must burn that draw too.
DNS_FILTERED = 0
UNREACHABLE_V4 = 1
UNREACHABLE_V6 = 2
IDENTITY_FAILED = 3
MEASURED = 4


@dataclass(slots=True)
class SitePlan:
    """One site's planned fate this round (sessions pinned where opened)."""

    name: str
    site_id: int
    kind: int
    session_v4: DownloadSession | None = None
    session_v6: DownloadSession | None = None


@dataclass(slots=True)
class RoundPlan:
    """The whole round, planned: per-site fates plus the rows they imply.

    ``sites`` holds one slot per dispatched site in dispatch order; a
    DNS-filtered site's slot is ``None`` — the execute phase charges it
    the fixed DNS-phase duration and nothing else, so carrying a name or
    id for it would be pure allocation overhead (the vast majority of a
    top list is single-stack, per the paper's Fig 1).
    """

    round_idx: int
    sites: list[SitePlan | None]
    #: pre-aggregated top-list tallies: (queried, has_v4, has_v6).
    listed_counts: tuple[int, int, int]
    #: dual-stack DNS rows, dispatch order (bulk-added at round end).
    dns_rows: list[DnsObservation]
    #: rows for sites that reached the identity comparison, dispatch order.
    page_rows: list[PageCheck]


def build_round_plan(
    tool, round_idx: int, order: list[str], listed_now: set[str]
) -> RoundPlan:
    """Plan one fault-free round over ``order`` (the shuffled dispatch order)."""
    env = tool.env
    pair_resolver: PairResolver | None = tool._pair_resolver
    if pair_resolver is None:
        pair_resolver = tool._pair_resolver = PairResolver(env.resolver)
    pair_resolver.sync()
    site_ids = tool._site_ids
    site_id_of = env.site_id_of
    filed = pair_resolver.sites.get
    resolve = pair_resolver.resolve

    sites: list[SitePlan | None] = []
    dns_rows: list[DnsObservation] = []
    dual: list[tuple[SitePlan, object, object]] = []
    n_resolved = 0
    for name in order:
        pair = filed(name)
        if pair is None:
            # First sight of the site, or its DNS changed since last round.
            pair = resolve(name)
            n_resolved += 1
        if not pair:
            sites.append(None)
            continue
        site_id = site_ids.get(name)
        if site_id is None:
            site_id = site_ids[name] = site_id_of(name)
        dns_rows.append(
            DnsObservation(
                site_id=site_id,
                name=name,
                round_idx=round_idx,
                has_v4=True,
                has_v6=True,
                listed=name in listed_now,
            )
        )
        plan = SitePlan(name=name, site_id=site_id, kind=DNS_FILTERED)
        sites.append(plan)
        dual.append((plan, pair[0], pair[1]))
    pair_resolver.account(len(order), n_resolved)
    # Every dispatched site is filed now, so the top-list tallies are
    # set intersections rather than a per-site count.
    listed = listed_now.intersection(order)
    listed_counts = (
        len(listed),
        len(listed) - len(listed & pair_resolver.no_v4),
        len(listed & pair_resolver.v6),
    )

    client = env.client
    sessions_v4 = client.open_many(
        [
            (res4.final_name, res4.addresses[0], AddressFamily.IPV4, round_idx)
            for _plan, res4, _res6 in dual
        ]
    )
    # IPv6 sessions only where IPv4 was reachable: the scalar path bails
    # on a v4-dark site before ever looking its v6 endpoint up, and the
    # work counters must tell the same story.
    pending: list[tuple[SitePlan, object]] = []
    for (plan, _res4, res6), session_v4 in zip(dual, sessions_v4):
        if session_v4 is None:
            plan.kind = UNREACHABLE_V4
        else:
            plan.session_v4 = session_v4
            pending.append((plan, res6))
    sessions_v6 = client.open_many(
        [
            (res6.final_name, res6.addresses[0], AddressFamily.IPV6, round_idx)
            for _plan, res6 in pending
        ]
    )

    page_rows: list[PageCheck] = []
    threshold = tool.config.identity_threshold
    for (plan, _res6), session_v6 in zip(pending, sessions_v6):
        if session_v6 is None:
            plan.kind = UNREACHABLE_V6
            continue
        plan.session_v6 = session_v6
        v4_bytes = plan.session_v4.endpoint.page_bytes
        v6_bytes = session_v6.endpoint.page_bytes
        larger = max(v4_bytes, v6_bytes)
        identical = abs(v4_bytes - v6_bytes) / larger <= threshold
        page_rows.append(
            PageCheck(
                site_id=plan.site_id,
                round_idx=round_idx,
                v4_bytes=v4_bytes,
                v6_bytes=v6_bytes,
                identical=identical,
            )
        )
        plan.kind = MEASURED if identical else IDENTITY_FAILED
    return RoundPlan(
        round_idx=round_idx,
        sites=sites,
        listed_counts=listed_counts,
        dns_rows=dns_rows,
        page_rows=page_rows,
    )
