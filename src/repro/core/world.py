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

from ..bgp.routing import PathOracle, Route
from ..config import ScenarioConfig
from ..dataplane.clock import SimulationClock
from ..dataplane.path import ForwardingPath
from ..dataplane.performance import ThroughputModel
from ..dns.records import RecordType, ResourceRecord
from ..dns.resolver import Resolver
from ..dns.zone import ZoneStore
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
from ..web.http import ContentEndpoint, HttpClient
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
    zones: ZoneStore
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
    _endpoint_cache: dict[tuple[int, AddressFamily, int], ContentEndpoint] = field(
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
    _zone_round: int = -1
    _publisher: "ZonePublisher | None" = field(default=None, repr=False)

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

    # -- DNS lifecycle ------------------------------------------------------------

    def advance_to_round(self, round_idx: int) -> None:
        """Publish DNS records that exist as of ``round_idx``.

        A records for every site are published up front; each site's AAAA
        record appears at its adoption round.  Idempotent and monotone.
        Delegates to a :class:`ZonePublisher` over the shared ``zones``
        store; campaign shards create their own publishers instead so
        vantage points can execute independently.
        """
        if self._publisher is None:
            self._publisher = ZonePublisher(
                world=self, store=self.zones, published_round=self._zone_round
            )
        self._publisher.advance_to(round_idx)
        self._zone_round = self._publisher.published_round

    def zone_snapshot(self, round_idx: int) -> ZoneStore:
        """A standalone ZoneStore reflecting DNS as of ``round_idx``.

        The live store mutates as the campaign advances; experiments that
        revisit a past round (the World IPv6 Day campaign monitors *at*
        the event round) resolve against a snapshot instead.
        """
        store = ZoneStore()
        zone = store.zone_for("example.")
        for site in self.catalog.sites:
            zone.add(
                ResourceRecord(
                    name=site.name,
                    rtype=RecordType.A,
                    value=self.address_of(site, AddressFamily.IPV4),
                )
            )
            if site.v6_accessible_at(round_idx):
                zone.add(
                    ResourceRecord(
                        name=site.name,
                        rtype=RecordType.AAAA,
                        value=self.address_of(site, AddressFamily.IPV6),
                    )
                )
        return store

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

    def content_endpoint(
        self, name: str, family: AddressFamily, round_idx: int
    ) -> ContentEndpoint:
        """What serves ``name`` over ``family`` at ``round_idx`` (cached)."""
        site = self.catalog.by_name(name)
        key = (site.site_id, family, round_idx)
        cached = self._endpoint_cache.get(key)
        if cached is not None:
            return cached
        if family is AddressFamily.IPV4 and site.cdn is not None:
            server = site.cdn.provider.edge_server()
        else:
            server = site.server
        speed = server.speed(family) * site.behaviour.multiplier(family, round_idx)
        endpoint = ContentEndpoint(
            site_id=site.site_id,
            server_asn=server.asn,
            server_speed=speed,
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

    def _path_provider(self, vantage_asn: int, dns64: bool = False):
        gateway = self.nat64_gateway_for(vantage_asn) if dns64 else None

        def provide(
            owner_asn: int, site_id: int, family: AddressFamily, round_idx: int
        ) -> ForwardingPath | None:
            site = self.catalog.site(site_id)
            if (
                dns64
                and family is AddressFamily.IPV6
                and not site.v6_accessible_at(round_idx)
            ):
                # The AAAA this connection resolved to was DNS64-
                # synthesized (the site publishes no real AAAA yet), so
                # forwarding crosses the NAT64 gateway.
                if (
                    gateway is not None
                    and self.faults is not None
                    and self.faults.nat64_outage(gateway.gateway_asn, round_idx)
                ):
                    # The translator is down this round: every
                    # synthesized-AAAA connection through it fails.
                    _NAT64_OUTAGES.inc()
                    return None
                return self.translated_path(vantage_asn, owner_asn)
            alternate = site.behaviour.path_changes_at(family, round_idx)
            path = self.forwarding_path(vantage_asn, owner_asn, family, alternate)
            if (
                path is not None
                and path.tunnels
                and self.faults is not None
                and self.faults.tunnel_broken(owner_asn, round_idx)
            ):
                # The destination's transition tunnel is down this round:
                # the site is unreachable over IPv6 from everywhere, like
                # the flapping 6to4 relays of the measurement period.
                return None
            return path

        return provide

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
        self, vantage: VantagePoint, zones: ZoneStore | None = None
    ) -> VantageEnvironment:
        """Build the monitoring environment of one vantage point.

        ``zones`` overrides the resolver's zone store; campaign shards
        pass their own :class:`ZonePublisher` store so each vantage can
        advance the DNS timeline independently of the others.
        """
        dns64_on = self.config.dns64.applies_to(vantage.name)
        if dns64_on:
            # Translated connections reach IPv4 content: the synthesized
            # AAAA embeds the site's A record, so a "v6" fetch of a
            # v4-only site serves the IPv4 page from the IPv4 server.
            def content_lookup(
                name: str, family: AddressFamily, round_idx: int
            ) -> ContentEndpoint:
                if family is AddressFamily.IPV6 and not self.catalog.by_name(
                    name
                ).v6_accessible_at(round_idx):
                    return self.content_endpoint(
                        name, AddressFamily.IPV4, round_idx
                    )
                return self.content_endpoint(name, family, round_idx)

        else:
            content_lookup = self.content_endpoint
        client = HttpClient(
            model=self.model,
            content_lookup=content_lookup,
            path_provider=self._path_provider(vantage.asn, dns64_on),
            owner_lookup=self.owner_of_address,
            fault_hook=self.server_fault_hook(),
        )
        n_rounds = self.config.campaign.n_rounds
        external_ids = self.external_site_ids()

        def site_list(round_idx: int) -> list[str]:
            return [
                self.catalog.site(sid).name
                for sid in self.catalog.ranking.list_at_round(round_idx)
            ]

        def external_inputs(round_idx: int) -> list[str]:
            if not vantage.external_inputs or not external_ids:
                return []
            # Trickle the external pool in evenly over the campaign.
            per_round = max(1, len(external_ids) // max(1, n_rounds))
            upto = min(len(external_ids), per_round * (round_idx + 1))
            return [self.catalog.site(sid).name for sid in external_ids[:upto]]

        return VantageEnvironment(
            resolver=Resolver(
                store=zones if zones is not None else self.zones,
                fault_check=self.dns_fault_check(),
                dns64=dns64_on,
            ),
            client=client,
            clock=self.clock,
            site_list=site_list,
            external_inputs=external_inputs,
            site_id_of=lambda name: self.catalog.by_name(name).site_id,
            record_transitions=self.config.dns64.enabled,
        )

    def external_site_ids(self) -> list[int]:
        """Sites outside the ranked universe (Penn's DNS-cache feed)."""
        return list(
            range(self.catalog.ranking.universe_size, len(self.catalog.sites))
        )

    def monitor_rng(self, vantage: VantagePoint) -> random.Random:
        return self.rngs.stream(f"monitor:{vantage.name}")


@dataclass
class ZonePublisher:
    """Publishes site DNS records round by round into one zone store.

    The DNS timeline — A records up front, each AAAA at its site's
    adoption round, event-day records added and removed around World
    IPv6 Day — is a pure function of the catalog, so any number of
    publishers over the same world expose identical zone contents at
    the same round.  That is what lets campaign shards (one vantage
    each, possibly in different processes) resolve against private
    stores yet observe exactly the DNS the shared store would have
    shown.
    """

    world: World
    store: ZoneStore = field(default_factory=ZoneStore)
    #: last round whose records have been published (-1 = nothing yet).
    published_round: int = -1
    #: lazily-built index: round → sites whose AAAA state can change there
    #: (adoption round, event day, day after the event).  Advancing a
    #: round then touches the handful of transitioning sites instead of
    #: re-checking the whole catalog.
    _events_by_round: dict[int, list] | None = field(
        default=None, repr=False, compare=False
    )

    def _transition_candidates(self, start: int, round_idx: int) -> list:
        """Sites whose v6 accessibility may differ across [start, round_idx]."""
        if self._events_by_round is None:
            index: dict[int, list] = {}
            for site in self.world.catalog.sites:
                rounds = set()
                if site.adoption_round is not None:
                    rounds.add(site.adoption_round)
                if site.w6d_event_round is not None:
                    rounds.add(site.w6d_event_round)
                    rounds.add(site.w6d_event_round + 1)
                for r in rounds:
                    index.setdefault(r, []).append(site)
            self._events_by_round = index
        seen: set[int] = set()
        candidates = []
        for r in range(start, round_idx + 1):
            for site in self._events_by_round.get(r, ()):
                if site.site_id not in seen:
                    seen.add(site.site_id)
                    candidates.append(site)
        return candidates

    def advance_to(self, round_idx: int) -> None:
        """Publish records that exist as of ``round_idx`` (idempotent)."""
        if round_idx <= self.published_round:
            return
        world = self.world
        zone = self.store.zone_for("example.")
        start = self.published_round + 1
        if self.published_round < 0:
            for site in world.catalog.sites:
                zone.add(
                    ResourceRecord(
                        name=site.name,
                        rtype=RecordType.A,
                        value=world.address_of(site, AddressFamily.IPV4),
                    )
                )
        for site in self._transition_candidates(start, round_idx):
            published = site.v6_accessible_at(self.published_round) if (
                self.published_round >= 0
            ) else False
            target = site.v6_accessible_at(round_idx)
            # Event-day-only AAAA records may need an add *and* a remove
            # within the advanced window (e.g. jumping past the event).
            event = site.w6d_event_round
            transient_event = (
                event is not None
                and start <= event <= round_idx
                and not target
                and not published
            )
            if target and not published:
                zone.add(
                    ResourceRecord(
                        name=site.name,
                        rtype=RecordType.AAAA,
                        value=world.address_of(site, AddressFamily.IPV6),
                    )
                )
            elif published and not target:
                zone.remove(site.name, RecordType.AAAA)
            elif transient_event:
                # The event came and went entirely inside this window; the
                # zone ends up unchanged.
                pass
        self.published_round = round_idx


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


_LOG = get_logger("core.world")
#: translated connections refused because the gateway was down (module
#: cached: ``obs`` resets metrics in place).
_NAT64_OUTAGES = metrics.counter("faults.nat64_outages")


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
            zones=ZoneStore(),
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
