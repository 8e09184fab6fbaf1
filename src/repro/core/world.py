"""World assembly.

``build_world`` turns a :class:`~repro.config.ScenarioConfig` into a fully
wired synthetic Internet: topology, IPv6 overlay, addressing, DNS, site
catalog, servers, vantage points, and the per-vantage monitoring
environments (resolver + HTTP client + list feeds) the monitoring tool
consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from ..bgp.routing import PathOracle, Route
from ..config import ScenarioConfig
from ..dataplane.clock import SimulationClock
from ..dataplane.path import ForwardingPath
from ..dataplane.performance import ThroughputModel
from ..dns.records import RecordType, ResourceRecord, RRSet
from ..dns.resolver import Resolver
from ..dns.timeline import DnsTimeline, Schedule, TimelineCursor
from ..dns.zone import ZoneSource
from ..errors import ConfigError
from ..faults.plan import FaultPlan, ServerFault
from ..monitor.vantage import VantageKind, VantagePoint
from ..net.addresses import Address, AddressFamily
from ..net.nat64 import Nat64Gateway, extract_ipv4, is_nat64_mapped
from ..net.tunnels import TunnelKind
from ..obs import get_logger, metrics, span
from ..rng import RngStreams
from ..sites.catalog import Site, SiteCatalog, build_catalog
from ..topology.asys import ASType
from ..topology.dualstack import (
    DualStackTopology,
    deploy_ipv6,
    select_nat64_gateways,
    valley_free_distances,
)
from ..topology.generator import Topology, generate_topology
from ..web.http import ContentEndpoint, HttpClient, RouteBinding
from ..monitor.tool import VantageEnvironment

#: The paper's six vantage points (Table 1): name, location, start offset
#: (as a fraction of the campaign), AS_PATH availability, white-listing,
#: type, and whether external site inputs are fed in (Penn's DNS cache).
VANTAGE_TEMPLATES = (
    ("Penn", "Philadelphia, PA", 0.00, True, False, VantageKind.ACADEMIC, True),
    ("Comcast", "Denver, CO", 0.35, True, False, VantageKind.COMMERCIAL, False),
    ("UPCB", "Netherlands", 0.40, True, True, VantageKind.COMMERCIAL, False),
    ("Tsinghua", "China", 0.45, False, False, VantageKind.ACADEMIC, False),
    ("LU", "Great Britain", 0.50, True, False, VantageKind.ACADEMIC, False),
    ("Go6", "Slovenia", 0.55, False, False, VantageKind.COMMERCIAL, False),
)


@dataclass
class World:
    """A fully wired scenario, ready to be monitored."""

    config: ScenarioConfig
    rngs: RngStreams
    topology: Topology
    dualstack: DualStackTopology
    catalog: SiteCatalog
    model: ThroughputModel
    clock: SimulationClock
    vantages: list[VantagePoint]
    oracle: PathOracle
    #: the scenario's fault schedule; None when fault injection is off.
    faults: FaultPlan | None = None
    #: NAT64 translators (empty when the DNS64/NAT64 axis is off).
    nat64_gateways: tuple[Nat64Gateway, ...] = ()
    #: per-site addresses by family.
    _addresses: dict[tuple[int, AddressFamily], Address] = field(
        default_factory=dict, repr=False
    )
    _path_cache: dict[tuple[int, int, AddressFamily, bool], ForwardingPath | None] = (
        field(default_factory=dict, repr=False)
    )
    _owner_cache: dict[Address, int] = field(default_factory=dict, repr=False)
    _endpoint_cache: dict[tuple[int, AddressFamily], ContentEndpoint] = field(
        default_factory=dict, repr=False
    )
    #: per-gateway valley-free IPv4 distances (the hidden translated leg).
    _nat64_distances: dict[int, dict[int, int]] = field(
        default_factory=dict, repr=False
    )
    #: vantage ASN -> chosen gateway (None when none is reachable).
    _vantage_gateway: dict[int, Nat64Gateway | None] = field(
        default_factory=dict, repr=False
    )
    _translated_cache: dict[tuple[int, int], ForwardingPath | None] = field(
        default_factory=dict, repr=False
    )
    #: round -> ranked site names, shared by every vantage's monitor.
    _site_lists: dict[int, list[str]] = field(default_factory=dict, repr=False)
    #: the DNS history every vantage reads (built on first use).
    _dns_timeline: DnsTimeline | None = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        """Pickle the world without its memo caches.

        Addresses, paths, owners, endpoints, NAT64 legs, site lists and
        the DNS timeline (with its shared answers) are pure functions of
        the config and the built world; a loaded world rebuilds them on
        demand, exactly as a fresh one does.
        """
        state = self.__dict__.copy()
        for name in _MEMO_FIELDS:
            del state[name]
        state["_dns_timeline"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in _MEMO_FIELDS:
            setattr(self, name, {})

    # -- addressing -------------------------------------------------------------

    def address_of(self, site: Site, family: AddressFamily) -> Address:
        key = (site.site_id, family)
        cached = self._addresses.get(key)
        if cached is not None:
            return cached
        owner = site.dest_asn(family)
        prefix = self.dualstack.allocator.prefix_of(owner, family)
        host = site.site_id + 1
        if host > prefix.host_mask:
            raise ConfigError(
                f"site id {site.site_id} exceeds host space of {prefix}; "
                "shrink the site universe or widen allocations"
            )
        address = prefix.address(host)
        self._addresses[key] = address
        return address

    # -- DNS -----------------------------------------------------------------

    def dns_timeline(self) -> DnsTimeline:
        """The world's DNS history (see :mod:`repro.dns.timeline`).

        Built on first use, not in :func:`build_world`: a world that
        never resolves a name never pays for it.
        """
        timeline = self._dns_timeline
        if timeline is None:
            timeline = self._dns_timeline = DnsTimeline(self._dns_schedules())
        return timeline

    def release_dns_timeline(self) -> None:
        """Free the DNS timeline and its shared answers.

        Campaign drivers call this once their shards are done: the
        timeline is the campaign's working set, and the analysis that
        follows on the same world never reads it.  The next
        :meth:`dns_timeline` call rebuilds it.  The shared per-round
        site lists go with it.
        """
        self._dns_timeline = None
        self._site_lists = {}

    def dns_cursor(self, round_idx: int = 0) -> TimelineCursor:
        """A fresh cursor over the DNS timeline, positioned at ``round_idx``."""
        return TimelineCursor(self.dns_timeline(), round_idx)

    def _dns_schedules(self) -> Iterator[Schedule]:
        """Every site's record sets from round 0 and at each change.

        An A record exists from round 0; the AAAA record follows
        :meth:`Site.v6_accessible_at`, so it can only change at the
        site's adoption round, its World IPv6 Day event round and the
        round after the event.
        """
        v4, v6 = AddressFamily.IPV4, AddressFamily.IPV6
        for site in self.catalog.sites:
            name = site.name
            v4_only = {
                RecordType.A: _rrset(name, RecordType.A, self.address_of(site, v4))
            }
            candidates = {site.adoption_round, site.w6d_event_round}
            if site.w6d_event_round is not None:
                candidates.add(site.w6d_event_round + 1)
            states = [(0, site.v6_accessible_at(0))]
            for round_idx in sorted(c for c in candidates if c is not None and c > 0):
                has_v6 = site.v6_accessible_at(round_idx)
                if has_v6 != states[-1][1]:
                    states.append((round_idx, has_v6))
            dual = v4_only
            if any(has_v6 for _, has_v6 in states):
                dual = {
                    **v4_only,
                    RecordType.AAAA: _rrset(
                        name, RecordType.AAAA, self.address_of(site, v6)
                    ),
                }
            yield name, [
                (round_idx, dual if has_v6 else v4_only)
                for round_idx, has_v6 in states
            ]

    # -- per-vantage wiring ---------------------------------------------------------

    def forwarding_path(
        self, vantage_asn: int, owner_asn: int, family: AddressFamily, alternate: bool
    ) -> ForwardingPath | None:
        """Cached forwarding path from a vantage AS to an owner AS.

        6to4 owners are special: their 2002::/x prefix is announced by the
        *relay* AS (RFC 3056 routing), so the observable AS path ends at
        the relay while forwarding continues over the hidden IPv4 detour
        to the client - the BGP view under-reports both the destination AS
        and the hop count, exactly the effect the paper attributes to
        tunnels.
        """
        key = (vantage_asn, owner_asn, family, alternate)
        if key in self._path_cache:
            return self._path_cache[key]
        target = owner_asn
        six_to_four = None
        if family is AddressFamily.IPV6:
            tunnel = self.dualstack.tunnel_of(owner_asn)
            if tunnel is not None and tunnel.kind is TunnelKind.SIX_TO_FOUR:
                six_to_four = tunnel
                target = tunnel.relay_asn
        route: Route | None
        if alternate:
            route = self.oracle.alternate_route(vantage_asn, target, family)
            if route is None:
                route = self.oracle.detour_route(vantage_asn, target, family)
            if route is None:
                route = self.oracle.route(vantage_asn, target, family)
        else:
            route = self.oracle.route(vantage_asn, target, family)
        if route is None:
            path = None
        else:
            path = ForwardingPath.from_as_path(self.dualstack, route.path, family)
            if six_to_four is not None:
                path = replace(path, tunnels=path.tunnels + (six_to_four,))
        self._path_cache[key] = path
        return path

    def content_endpoint(self, site: Site, family: AddressFamily) -> ContentEndpoint:
        """What serves ``site`` over ``family`` (cached).

        Round-invariant: the server's speed is its family-specific speed
        before the site's behaviour scales it round by round.
        """
        key = (site.site_id, family)
        cached = self._endpoint_cache.get(key)
        if cached is not None:
            return cached
        if family is AddressFamily.IPV4 and site.cdn is not None:
            server = site.cdn.provider.edge_server()
        else:
            server = site.server
        endpoint = ContentEndpoint(
            site_id=site.site_id,
            server_asn=server.asn,
            server_speed=server.speed(family),
            page_bytes=site.page.size(family),
        )
        self._endpoint_cache[key] = endpoint
        return endpoint

    def owner_of_address(self, address: Address) -> int:
        """Cached address-to-owner-AS lookup (one hot path per download).

        NAT64-mapped addresses (64:ff9b::/96) are intercepted before the
        allocator: no AS allocates out of the well-known prefix, so the
        owner of a synthesized AAAA is the owner of the embedded IPv4
        address — the AS the translated flow actually lands in.
        """
        owner = self._owner_cache.get(address)
        if owner is None:
            if is_nat64_mapped(address):
                owner = self.dualstack.allocator.owner_of_address(
                    extract_ipv4(address)
                )
            else:
                owner = self.dualstack.allocator.owner_of_address(address)
            self._owner_cache[address] = owner
        return owner

    # -- NAT64 -----------------------------------------------------------------

    def nat64_gateway_for(self, vantage_asn: int) -> Nat64Gateway | None:
        """The NAT64 gateway a vantage's translated traffic crosses.

        Deterministic: the gateway with the shortest apparent IPv6 route
        from the vantage (ties to the lowest ASN), memoised per vantage.
        ``None`` when no gateway is deployed or none is v6-reachable.
        """
        if vantage_asn in self._vantage_gateway:
            return self._vantage_gateway[vantage_asn]
        best: Nat64Gateway | None = None
        best_key: tuple[int, int] | None = None
        for gateway in self.nat64_gateways:
            route = self.oracle.route(
                vantage_asn, gateway.gateway_asn, AddressFamily.IPV6
            )
            if route is None:
                continue
            key = (len(route.path), gateway.gateway_asn)
            if best_key is None or key < best_key:
                best, best_key = gateway, key
        self._vantage_gateway[vantage_asn] = best
        return best

    def translated_path(
        self, vantage_asn: int, owner_asn: int
    ) -> ForwardingPath | None:
        """The NAT64-translated forwarding path to an IPv4 owner (cached).

        The apparent IPv6 AS path runs from the vantage to the gateway
        announcing 64:ff9b::/96; the IPv4 leg from the gateway to the
        real destination is hidden from BGP, sized by the valley-free
        IPv4 distance — the same under-reporting tunnels exhibit.
        """
        key = (vantage_asn, owner_asn)
        if key in self._translated_cache:
            return self._translated_cache[key]
        path: ForwardingPath | None = None
        gateway = self.nat64_gateway_for(vantage_asn)
        if gateway is not None:
            route = self.oracle.route(
                vantage_asn, gateway.gateway_asn, AddressFamily.IPV6
            )
            if route is not None:
                base = ForwardingPath.from_as_path(
                    self.dualstack, route.path, AddressFamily.IPV6
                )
                distances = self._nat64_distances.get(gateway.gateway_asn)
                if distances is None:
                    distances = valley_free_distances(
                        self.topology, gateway.gateway_asn
                    )
                    self._nat64_distances[gateway.gateway_asn] = distances
                path = replace(
                    base,
                    translated=True,
                    translation_hidden_hops=max(
                        1, distances.get(owner_asn, 3)
                    ),
                    translation_quality=gateway.translation_quality,
                )
        self._translated_cache[key] = path
        return path

    def bind_route(
        self,
        vantage_asn: int,
        final_name: str,
        address: Address,
        family: AddressFamily,
        dns64: bool = False,
    ) -> RouteBinding:
        """The round-invariant half of a session from a vantage to ``address``.

        With ``dns64`` a NAT64-mapped AAAA was synthesized from the
        site's A record (the site publishes no real AAAA), so the
        connection reaches the IPv4 content over the translated path
        through the vantage's NAT64 gateway.
        """
        site = self.catalog.by_name(final_name)
        owner_asn = self.owner_of_address(address)
        if dns64 and family is AddressFamily.IPV6 and is_nat64_mapped(address):
            gateway = self.nat64_gateway_for(vantage_asn)
            path = self.translated_path(vantage_asn, owner_asn)
            return RouteBinding(
                self.content_endpoint(site, AddressFamily.IPV4),
                family,
                owner_asn,
                site.behaviour,
                route=lambda alternate: path,
                content_family=AddressFamily.IPV4,
                translated=True,
                gateway_asn=None if gateway is None else gateway.gateway_asn,
            )
        return RouteBinding(
            self.content_endpoint(site, family),
            family,
            owner_asn,
            site.behaviour,
            route=lambda alternate: self.forwarding_path(
                vantage_asn, owner_asn, family, alternate
            ),
        )

    # -- fault hooks -----------------------------------------------------------

    def dns_fault_check(self, clock: SimulationClock | None = None):
        """Resolver fault hook bound to this world's fault plan (or None).

        ``clock`` maps query timestamps to round indices; the World IPv6
        Day campaign passes its 30-minute clock, everything else uses the
        weekly campaign clock.
        """
        plan = self.faults
        if plan is None:
            return None
        the_clock = clock if clock is not None else self.clock

        def check(
            name: str, family: AddressFamily, now: float, attempt: int
        ) -> float | None:
            round_idx = the_clock.round_of_time(now)
            if plan.dns_failure(name, family, round_idx, attempt):
                return plan.config.dns_timeout_seconds
            return None

        return check

    def server_fault_hook(self):
        """HTTP-client fault hook bound to this world's fault plan (or None)."""
        plan = self.faults
        if plan is None:
            return None

        def hook(
            site_id: int, family: AddressFamily, round_idx: int, fault_key: str
        ) -> ServerFault | None:
            multiplier = 1.0
            if (
                family is AddressFamily.IPV6
                and self.catalog.site(site_id).server.v6_impaired
            ):
                multiplier = plan.config.impaired_fault_multiplier
            return plan.server_fault(
                site_id, family, round_idx, fault_key, multiplier
            )

        return hook

    def environment_for(
        self, vantage: VantagePoint, zones: ZoneSource | None = None
    ) -> VantageEnvironment:
        """Build the monitoring environment of one vantage point.

        ``zones`` is what the resolver reads DNS from; it defaults to a
        fresh :meth:`dns_cursor` at round 0.  Campaign shards pass their
        own cursor so each vantage advances through the DNS timeline
        independently of the others.
        """
        dns64_on = self.config.dns64.applies_to(vantage.name)

        def bind(
            final_name: str, address: Address, family: AddressFamily
        ) -> RouteBinding:
            return self.bind_route(
                vantage.asn, final_name, address, family, dns64_on
            )

        client = HttpClient(
            model=self.model,
            binder=bind,
            fault_hook=self.server_fault_hook(),
            faults=self.faults,
        )
        n_rounds = self.config.campaign.n_rounds
        external_ids = self.external_site_ids()

        def external_inputs(round_idx: int) -> list[str]:
            if not vantage.external_inputs or not external_ids:
                return []
            # Trickle the external pool in evenly over the campaign.
            per_round = max(1, len(external_ids) // max(1, n_rounds))
            upto = min(len(external_ids), per_round * (round_idx + 1))
            return [self.catalog.site(sid).name for sid in external_ids[:upto]]

        return VantageEnvironment(
            resolver=Resolver(
                store=zones if zones is not None else self.dns_cursor(),
                fault_check=self.dns_fault_check(),
                dns64=dns64_on,
            ),
            client=client,
            clock=self.clock,
            site_list=self.site_list,
            external_inputs=external_inputs,
            site_id_of=lambda name: self.catalog.by_name(name).site_id,
            record_transitions=self.config.dns64.enabled,
        )

    def site_list(self, round_idx: int) -> list[str]:
        """The round's ranked site names (the freshly retrieved top list).

        One list per round, shared by every vantage that reads it: the
        callers never mutate it.  Released with the DNS timeline.
        """
        names = self._site_lists.get(round_idx)
        if names is None:
            site = self.catalog.site
            names = self._site_lists[round_idx] = [
                site(sid).name
                for sid in self.catalog.ranking.list_at_round(round_idx)
            ]
        return names

    def external_site_ids(self) -> list[int]:
        """Sites outside the ranked universe (Penn's DNS-cache feed)."""
        return list(
            range(self.catalog.ranking.universe_size, len(self.catalog.sites))
        )


def _vantage_candidates(topo: DualStackTopology) -> list[int]:
    """ASes suitable to host a monitor: v6-enabled edge ASes, no tunnel.

    The paper's vantage points all had "high quality native IPv6", so
    tunneled ASes are excluded.
    """
    out = []
    for asn in topo.asn_list:
        asys = topo.base.ases[asn]
        if asys.type not in (ASType.STUB, ASType.CONTENT):
            continue
        if asn not in topo.v6_enabled or topo.tunnel_of(asn) is not None:
            continue
        out.append(asn)
    return out


def _v6_richness(topo: DualStackTopology, asn: int) -> int:
    """Proxy for how well an AS's neighbourhood peers over IPv6.

    Counts the v6 peering adjacencies of the AS and of its providers: the
    richer this neighbourhood, the more often the v6 path matches the v4
    path (more SP destinations), which is what differentiated vantage
    points like UPCB from Penn in the paper.
    """
    v6 = AddressFamily.IPV6
    score = len(topo.peers_of(asn, v6))
    for provider in topo.providers_of(asn, v6):
        score += len(topo.peers_of(provider, v6))
    return score


def select_vantage_ases(
    topo: DualStackTopology, count: int, rng: random.Random
) -> list[int]:
    """Pick ``count`` diverse vantage ASes, poorest v6 neighbourhood first.

    The returned order matches :data:`VANTAGE_TEMPLATES`: the first slot
    (Penn, which saw mostly DP destinations) gets the AS with the weakest
    v6 peering neighbourhood; later slots get progressively richer ones.
    """
    candidates = _vantage_candidates(topo)
    if len(candidates) < count:
        # Tiny scaled-down worlds may lack natively-connected edges; relax
        # to any v6-enabled edge AS before giving up.
        fallback = [
            asn
            for asn in topo.asn_list
            if topo.base.ases[asn].type in (ASType.STUB, ASType.CONTENT)
            and asn in topo.v6_enabled
            and asn not in candidates
        ]
        candidates = candidates + fallback
    if len(candidates) < count:
        raise ConfigError(
            f"only {len(candidates)} vantage-capable ASes; need {count} - "
            "raise v6 enablement probabilities or the topology size"
        )
    ranked = sorted(candidates, key=lambda asn: (_v6_richness(topo, asn), asn))
    # Spread selections over the richness range, regions permitting.
    picks: list[int] = []
    used_regions: set[int] = set()
    step = max(1, len(ranked) // count)
    cursor = 0
    for slot in range(count):
        window = ranked[cursor : cursor + step] or ranked[-step:]
        preferred = [
            asn
            for asn in window
            if topo.base.ases[asn].region not in used_regions
        ]
        choice = rng.choice(preferred or window)
        picks.append(choice)
        used_regions.add(topo.base.ases[choice].region)
        cursor += step
    return picks


def build_vantages(
    topo: DualStackTopology, n_rounds: int, rng: random.Random
) -> list[VantagePoint]:
    """Instantiate the paper's six vantage points on the topology."""
    ases = select_vantage_ases(topo, len(VANTAGE_TEMPLATES), rng)
    vantages = []
    for (name, location, start_frac, as_path, wl, kind, ext), asn in zip(
        VANTAGE_TEMPLATES, ases
    ):
        vantages.append(
            VantagePoint(
                name=name,
                location=location,
                asn=asn,
                start_round=int(start_frac * n_rounds),
                as_path_available=as_path,
                white_listed=wl,
                kind=kind,
                external_inputs=ext,
            )
        )
    return vantages


#: World fields holding derived memo caches (left out of its pickle).
_MEMO_FIELDS = (
    "_addresses",
    "_path_cache",
    "_owner_cache",
    "_endpoint_cache",
    "_nat64_distances",
    "_vantage_gateway",
    "_translated_cache",
    "_site_lists",
)


def _rrset(name: str, rtype: RecordType, address: Address) -> RRSet:
    return RRSet(
        name=name,
        rtype=rtype,
        records=(ResourceRecord(name=name, rtype=rtype, value=address),),
    )


_LOG = get_logger("core.world")


def build_world(config: ScenarioConfig) -> World:
    """Assemble the full scenario described by ``config``."""
    config.validate()
    rngs = RngStreams(config.seed)
    with span("world.build", seed=config.seed):
        with span("world.topology", n_ases=config.topology.n_ases):
            topology = generate_topology(config.topology, rngs.stream("topology"))
        with span("world.dualstack"):
            dualstack = deploy_ipv6(
                topology, config.dualstack, rngs.stream("dualstack")
            )
        faults = (
            FaultPlan(config.faults, config.seed) if config.faults.active else None
        )
        model = ThroughputModel(config.performance, rngs, faults=faults)
        n_rounds = config.campaign.n_rounds
        with span("world.catalog", n_sites=config.sites.n_sites):
            catalog = build_catalog(
                config.sites,
                config.adoption,
                dualstack,
                model,
                n_rounds=n_rounds,
                rng=rngs.stream("sites"),
            )
        with span("world.vantages"):
            vantages = build_vantages(dualstack, n_rounds, rngs.stream("vantages"))
            oracle = PathOracle(dualstack, sources=[v.asn for v in vantages])
        nat64_gateways: tuple[Nat64Gateway, ...] = ()
        if config.dns64.enabled:
            gateway_asns = select_nat64_gateways(
                dualstack, config.dns64.n_gateways, rngs.stream("nat64")
            )
            nat64_gateways = tuple(
                Nat64Gateway(
                    gateway_asn=asn,
                    translation_quality=config.dns64.translation_quality,
                )
                for asn in gateway_asns
            )
        world = World(
            config=config,
            rngs=rngs,
            topology=topology,
            dualstack=dualstack,
            catalog=catalog,
            model=model,
            clock=SimulationClock.weekly(),
            vantages=vantages,
            oracle=oracle,
            faults=faults,
            nat64_gateways=nat64_gateways,
        )
    metrics.gauge("world.ases").set(len(topology.ases))
    metrics.gauge("world.sites").set(len(catalog.sites))
    metrics.gauge("world.v6_enabled_ases").set(len(dualstack.v6_enabled))
    _LOG.info(
        "world built",
        extra={
            "seed": config.seed,
            "ases": len(topology.ases),
            "v6_ases": len(dualstack.v6_enabled),
            "sites": len(catalog.sites),
            "vantages": len(vantages),
        },
    )
    return world
