"""Plan phase of the round: file every site and open its sessions, no RNG.

Within one monitoring round a site's fault-free A/AAAA answers, and the
endpoints, forwarding paths and round-mean speeds its sessions pin, are
pure functions of (site, round): none of it touches the vantage's shared
RNG stream or the simulated clock.  :func:`build_round_plan` therefore
files the whole batch up front with the vantage's
:class:`~repro.dns.resolver.Resolver` (re-resolving only the sites whose
DNS changed), opens a dual-stack site's sessions with
:meth:`~repro.web.http.HttpClient.open` (IPv6 only where IPv4 was
reachable, as the monitor probes), and tallies the round's top-list
queries.

Opening is split the same way as the DNS: what never changes between
rounds is a :class:`~repro.web.http.RouteBinding`, built on a session's
first open and kept by the client per (final name, address), holding
the endpoint's fixed fields, the owner AS and each path asked for so
far with its path factor.  A DNS change gives a name a new address and
so a new binding.  Per round, an open only scales the speed by the
site's behaviour, picks the path by the round's path change, runs the
round's fault checks and takes the round noise.

In a fault-free world the plan also counts the Gaussians the round is
sure to draw from the shared stream (:attr:`RoundPlan.reserved_draws`),
so the execute phase can draw them as one block: none for a site whose
IPv4 destination is unreachable, one (the IPv4 probe) when only IPv6 is,
two probes otherwise, plus ``min(min_downloads, max_downloads)`` per
family when the pages are identical.  A faulty world reserves none,
since an injected fault can end any site before it draws.

Everything that depends on the dispatch instant or the shared stream is
left to the execute phase: injected DNS timeouts (keyed by the clock at
dispatch), identity probes and download loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UnreachableError
from ..net.addresses import AddressFamily
from ..web.http import DownloadSession
from ..web.page import identical_within


@dataclass(slots=True)
class SitePlan:
    """One dispatched site's fault-free fate this round.

    ``has_v4``/``has_v6`` say which families the site's DNS answers.  A
    single-stack site is planned only in a faulty world (its DNS faults
    still cost time and rows).  A dual-stack site carries its sessions:
    ``None`` marks an unreachable destination, and the IPv6 session is
    opened only where IPv4 was reachable.  ``identical`` is the page
    identity check over both sessions' page bytes.
    """

    name: str
    site_id: int
    listed: bool
    has_v4: bool
    has_v6: bool
    session_v4: DownloadSession | None = None
    session_v6: DownloadSession | None = None
    identical: bool = False


@dataclass(slots=True)
class RoundPlan:
    """The whole round, planned: one slot per site in dispatch order.

    In a fault-free world a single-stack site's slot is ``None`` — the
    execute phase charges it the fixed DNS-phase duration and nothing
    else, so carrying a name or id for it would be pure allocation
    overhead (the vast majority of a top list is single-stack, per the
    paper's Fig 1).
    """

    round_idx: int
    sites: list[SitePlan | None]
    #: fault-free top-list tallies: (queried, has_v4, has_v6).
    listed_counts: tuple[int, int, int]
    #: Gaussians the round is sure to draw (0 in a faulty world).
    reserved_draws: int = 0


def build_round_plan(
    tool, round_idx: int, order: list[str], listed_now: set[str]
) -> RoundPlan:
    """Plan one round over ``order`` (the shuffled dispatch order)."""
    env = tool.env
    resolver = env.resolver
    resolver.sync()
    faulty = resolver.fault_check is not None
    open_session = env.client.open
    site_ids = tool._site_ids
    site_id_of = env.site_id_of
    filed = resolver.sites.get
    resolve = resolver.resolve
    cfg = tool.config
    threshold = cfg.identity_threshold
    loop_draws = 2 + 2 * min(cfg.min_downloads, cfg.max_downloads)
    v4, v6 = AddressFamily.IPV4, AddressFamily.IPV6

    sites: list[SitePlan | None] = []
    n_resolved = 0
    reserved = 0
    for name in order:
        pair = filed(name)
        if pair is None:
            # First sight of the site, or its DNS changed since last round.
            pair = resolve(name)
            n_resolved += 1
        if not pair and not faulty:
            sites.append(None)
            continue
        site_id = site_ids.get(name)
        if site_id is None:
            site_id = site_ids[name] = site_id_of(name)
        if pair:
            res4, res6 = pair
            site = SitePlan(name, site_id, name in listed_now, True, True)
            try:
                site.session_v4 = session_v4 = open_session(
                    res4.final_name, res4.addresses[0], v4, round_idx
                )
                site.session_v6 = session_v6 = open_session(
                    res6.final_name, res6.addresses[0], v6, round_idx
                )
            except UnreachableError:
                if site.session_v4 is not None:
                    reserved += 1  # the IPv4 probe still draws
            else:
                site.identical = identical_within(
                    session_v4.endpoint.page_bytes,
                    session_v6.endpoint.page_bytes,
                    threshold,
                )
                reserved += loop_draws if site.identical else 2
        else:
            site = SitePlan(
                name, site_id, name in listed_now,
                name not in resolver.no_v4, name in resolver.v6,
            )
        sites.append(site)
    resolver.account(len(order), n_resolved)
    # Every dispatched site is filed now, so the top-list tallies are
    # set intersections rather than a per-site count.
    listed = listed_now.intersection(order)
    listed_counts = (
        len(listed),
        len(listed) - len(listed & resolver.no_v4),
        len(listed & resolver.v6),
    )
    return RoundPlan(
        round_idx=round_idx,
        sites=sites,
        listed_counts=listed_counts,
        reserved_draws=0 if faulty else reserved,
    )
