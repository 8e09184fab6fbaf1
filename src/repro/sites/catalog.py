"""The site catalog: every monitored website and its ground truth.

The catalog assembles, per site, everything the substrates need: where it
is hosted (per family), its main page, its server, its CDN subscription,
its temporal behaviour, and when (if ever) it becomes IPv6 accessible.
The monitoring tool never reads the catalog directly — it observes sites
through DNS and downloads, like the paper's tool did — but experiments
and tests use it as ground truth.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..config import AdoptionConfig, SiteConfig
from ..dataplane.performance import ThroughputModel
from ..errors import ConfigError
from ..net.addresses import AddressFamily
from ..topology.asys import ASType
from ..topology.dualstack import DualStackTopology
from ..web.cdn import CdnDeployment, CDNProvider
from ..web.page import WebPage
from ..web.server import OriginServer
from .adoption import AdoptionModel
from .behaviour import BehaviourKind, SiteBehaviour
from .ranking import SiteRanking


@dataclass
class Site:
    """Ground truth for one website."""

    site_id: int
    name: str
    origin_asn: int
    #: AS hosting the IPv6 presence (== origin_asn except split hosting).
    v6_origin_asn: int
    page: WebPage
    server: OriginServer
    behaviour: SiteBehaviour
    cdn: CdnDeployment | None = None
    #: first round with a *permanent* AAAA record; None = v4-only within
    #: the horizon (except possibly on World IPv6 Day, below).
    adoption_round: int | None = None
    w6d_participant: bool = False
    #: participant provisioned v6 well enough to offset routing detours.
    w6d_good_v6: bool = False
    #: set for participants that turn AAAA on for the event day only
    #: (most participants famously turned IPv6 off again afterwards).
    w6d_event_round: int | None = None

    def v6_accessible_at(self, round_idx: int) -> bool:
        if self.adoption_round is not None and round_idx >= self.adoption_round:
            return True
        return self.w6d_event_round == round_idx

    def dest_asn(self, family: AddressFamily) -> int:
        """The AS a client of ``family`` is served from."""
        if self.cdn is not None and self.cdn.provider.serves(family):
            return self.cdn.provider.asn
        if family is AddressFamily.IPV4:
            return self.origin_asn
        return self.v6_origin_asn

    def final_name(self, family: AddressFamily) -> str:
        """The DNS name the content is served under.

        CDN-fronted sites publish apex A records pointing straight into
        the CDN's AS (the 2011 Akamai pattern), so the name is the site
        name for both families; which *server* answers is family-specific
        (see :meth:`dest_asn`).
        """
        return self.name

    def is_dl(self) -> bool:
        """Different-locations site: v4 and v6 served from different ASes."""
        return self.dest_asn(AddressFamily.IPV4) != self.dest_asn(AddressFamily.IPV6)


@dataclass
class SiteCatalog:
    """All sites plus the ranked list they are sampled from."""

    sites: list[Site]
    ranking: SiteRanking
    cdns: list[CDNProvider] = field(default_factory=list)

    def site(self, site_id: int) -> Site:
        return self.sites[site_id]

    def by_name(self, name: str) -> Site:
        match = self._name_index().get(name)
        if match is None:
            raise KeyError(f"unknown site {name!r}")
        return match

    def _name_index(self) -> dict[str, Site]:
        index = getattr(self, "_names", None)
        if index is None:
            index = {site.name: site for site in self.sites}
            self._names = index
        return index

    def accessible_fraction(self, round_idx: int) -> float:
        """Fraction of the round's ranked list that is IPv6 accessible."""
        listed = self.ranking.list_at_round(round_idx)
        if not listed:
            return 0.0
        accessible = sum(
            1 for sid in listed if self.sites[sid].v6_accessible_at(round_idx)
        )
        return accessible / len(listed)

    def w6d_participants(self) -> list[Site]:
        return [site for site in self.sites if site.w6d_participant]

    def __len__(self) -> int:
        return len(self.sites)


def _page_for(config: SiteConfig, rng: random.Random) -> WebPage:
    mu = math.log(config.page_size_mean) - config.page_size_sigma**2 / 2.0
    size = max(500, int(math.exp(rng.gauss(mu, config.page_size_sigma))))
    if rng.random() < config.different_content_fraction:
        delta = rng.uniform(0.08, 0.40) * (1 if rng.random() < 0.5 else -1)
        v6_size = max(500, int(size * (1.0 + delta)))
        return WebPage(v4_bytes=size, v6_bytes=v6_size)
    return WebPage.same_content(size)


def _behaviour_for(
    config: SiteConfig, n_rounds: int, rng: random.Random
) -> SiteBehaviour:
    draw = rng.random()
    if draw < config.stationary_fraction:
        return SiteBehaviour.stationary()
    change_round = rng.randrange(max(1, n_rounds // 4), max(2, n_rounds))
    if draw < config.stationary_fraction + config.step_fraction:
        kind = BehaviourKind.STEP_UP if rng.random() < 0.5 else BehaviourKind.STEP_DOWN
        path_change = rng.random() < config.step_from_path_change_fraction
        affected = None
        if path_change:
            affected = (
                AddressFamily.IPV6 if rng.random() < 0.7 else AddressFamily.IPV4
            )
        return SiteBehaviour(
            kind=kind,
            change_round=change_round,
            magnitude=rng.uniform(0.4, 0.8),
            path_change=path_change,
            affected_family=affected,
        )
    kind = BehaviourKind.TREND_UP if rng.random() < 0.5 else BehaviourKind.TREND_DOWN
    return SiteBehaviour(
        kind=kind,
        change_round=0,
        slope_per_round=rng.uniform(0.006, 0.02),
    )


def _server_for(
    config: SiteConfig,
    model: ThroughputModel,
    asn: int,
    will_be_dual_stack: bool,
    rng: random.Random,
) -> OriginServer:
    base = model.sample_server_base_speed(rng)
    v6_eff = 1.0
    if will_be_dual_stack and rng.random() < config.server_v6_impaired_fraction:
        v6_eff = min(
            0.85, max(0.2, rng.gauss(config.impaired_efficiency_mean, 0.1))
        )
    return OriginServer(asn=asn, base_speed=base, v6_efficiency=v6_eff)


def build_catalog(
    site_config: SiteConfig,
    adoption_config: AdoptionConfig,
    topo: DualStackTopology,
    model: ThroughputModel,
    n_rounds: int,
    rng: random.Random,
) -> SiteCatalog:
    """Generate the full site universe against a dual-stack topology.

    Placement respects reality constraints: a site can only be IPv6
    accessible if its (v6) hosting AS is v6-enabled, so adopting sites are
    placed into v6-enabled hosting ASes.
    """
    site_config.validate()
    adoption_config.validate()

    hosting_types = (ASType.CONTENT, ASType.STUB)
    hosts_all = sorted(
        asys.asn for asys in topo.base.ases.values() if asys.type in hosting_types
    )
    hosts_v6 = sorted(asn for asn in hosts_all if asn in topo.v6_enabled)
    if not hosts_all:
        raise ConfigError("topology has no content/stub ASes to host sites")
    if not hosts_v6:
        raise ConfigError("no v6-enabled hosting AS; raise v6 enable probabilities")
    # Production sites overwhelmingly run in natively-connected v6 ASes;
    # tunneled (6to4/broker) hosting is the exception.  Keeping a modest
    # tunneled share preserves Table 7's low-hop anomaly without letting
    # tunnel penalties pollute every hop-count bucket.
    tunneled_hosting_fraction = 0.15

    def pick_v6_host(pool: list[int]) -> int:
        native = [a for a in pool if topo.tunnel_of(a) is None]
        tunneled = [a for a in pool if topo.tunnel_of(a) is not None]
        if tunneled and (not native or rng.random() < tunneled_hosting_fraction):
            return rng.choice(tunneled)
        return rng.choice(native or pool)

    content_hosts = [
        asn for asn in hosts_all if topo.base.ases[asn].type is ASType.CONTENT
    ] or hosts_all
    content_hosts_v6 = [
        asn for asn in hosts_v6 if topo.base.ases[asn].type is ASType.CONTENT
    ] or hosts_v6

    cdns = [
        CDNProvider(name=f"cdn{asys.asn}", asn=asys.asn)
        for asys in sorted(
            topo.base.ases_of_type(ASType.CDN), key=lambda a: a.asn
        )
    ]

    ranked_universe = site_config.n_sites + int(
        math.ceil(site_config.churn_rate * site_config.n_sites * n_rounds)
    )
    # Sites beyond the ranked universe form the external pool (never on the
    # top list; fed to monitors with external inputs, i.e. Penn's DNS cache).
    universe = ranked_universe + int(
        round(site_config.external_pool_fraction * site_config.n_sites)
    )
    adoption = AdoptionModel(adoption_config, population=universe)
    eligible_rank = max(1, int(universe * adoption_config.w6d_eligible_rank_fraction))

    sites: list[Site] = []
    for site_id in range(universe):
        rank = site_id + 1
        if site_id >= ranked_universe:
            # External-pool sites are arbitrary DNS-cache names whose
            # popularity is unknown; draw an effective rank uniformly so
            # the pool's adoption mix resembles the wider Internet.
            rank = rng.randrange(1, universe + 1)
        adoption_round = adoption.adoption_round(rank, rng, horizon=n_rounds)

        w6d_participant = False
        w6d_event_round = None
        if (
            site_id < ranked_universe
            and rank <= eligible_rank
            and rng.random() < adoption_config.w6d_participant_fraction
        ):
            w6d_participant = True
            w6d_round = adoption_config.world_ipv6_day_round
            already_on = adoption_round is not None and adoption_round <= w6d_round
            if not already_on:
                if rng.random() < adoption_config.w6d_retention:
                    # Keeps AAAA after the event.
                    adoption_round = w6d_round
                else:
                    # AAAA for the event day only; any later organic
                    # adoption still happens at its own round.
                    w6d_event_round = w6d_round

        dual_stack = adoption_round is not None or w6d_event_round is not None
        # Placement: v6-adopting sites must land in a v6-enabled AS.
        if dual_stack:
            pool = content_hosts_v6 if rng.random() < 0.8 else hosts_v6
            origin_asn = pick_v6_host(pool)
        else:
            pool = content_hosts if rng.random() < 0.8 else hosts_all
            origin_asn = rng.choice(pool)
        v6_origin_asn = origin_asn
        if dual_stack and rng.random() < site_config.split_hosting_fraction:
            others = [asn for asn in hosts_v6 if asn != origin_asn]
            if others:
                v6_origin_asn = rng.choice(others)

        cdn = None
        is_content_host = topo.base.ases[origin_asn].type is ASType.CONTENT
        if cdns and is_content_host and rng.random() < site_config.cdn_fraction:
            cdn = CdnDeployment(provider=rng.choice(cdns))

        server = _server_for(site_config, model, origin_asn, dual_stack, rng)
        behaviour = _behaviour_for(site_config, n_rounds, rng)
        w6d_good_v6 = False
        if w6d_participant:
            # Participants made sure their end-systems were fully IPv6
            # qualified (paper, Section 5.3) - impairments removed.
            server.v6_efficiency = 1.0
            behaviour = SiteBehaviour.stationary()
            w6d_good_v6 = rng.random() < adoption_config.w6d_good_v6_prob

        sites.append(
            Site(
                site_id=site_id,
                name=f"site{site_id:06d}.example",
                origin_asn=origin_asn,
                v6_origin_asn=v6_origin_asn,
                page=_page_for(site_config, rng),
                server=server,
                behaviour=behaviour,
                cdn=cdn,
                adoption_round=adoption_round,
                w6d_participant=w6d_participant,
                w6d_good_v6=w6d_good_v6,
                w6d_event_round=w6d_event_round,
            )
        )

    ranking = SiteRanking(
        universe_size=ranked_universe,
        list_size=site_config.n_sites,
        churn_rate=site_config.churn_rate,
        rng=rng,
    )
    return SiteCatalog(sites=sites, ranking=ranking, cdns=cdns)
