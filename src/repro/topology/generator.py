"""AS-level topology generation.

Builds a Gao-Rexford-consistent hierarchy:

* a clique of tier-1 ASes (all mutually peering, no providers);
* transit ASes buying from tier-1s and earlier (larger) transits, with
  regional peering between transits;
* stub and content ASes multihomed to transits in their region, content
  ASes sometimes peering directly with transits (content players were
  early aggressive peerers);
* CDN ASes attached to many transits across regions, modelling anycast
  footprints.

The resulting graph is connected, valley-free-routable, and annotated
with per-AS data-plane quality factors drawn identically for IPv4 and
IPv6 — which is precisely the paper's hypothesis H1 (comparable data
planes); hypothesis H2 effects come from the *dual-stack overlay* in
:mod:`repro.topology.dualstack`, not from here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..config import TopologyConfig
from ..errors import TopologyError
from .asys import ASType, AutonomousSystem
from .relationships import Link, Relationship


@dataclass
class Topology:
    """The IPv4 Internet graph: ASes plus typed links, with adjacency views."""

    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._providers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        self._link_keys: set[tuple[int, int]] = set()
        for link in list(self.links):
            self._index_link(link)

    # -- construction -----------------------------------------------------

    def add_as(self, asys: AutonomousSystem) -> None:
        if asys.asn in self.ases:
            raise TopologyError(f"duplicate AS{asys.asn}")
        self.ases[asys.asn] = asys
        self._providers.setdefault(asys.asn, set())
        self._customers.setdefault(asys.asn, set())
        self._peers.setdefault(asys.asn, set())

    def add_link(self, link: Link) -> None:
        for end in link.endpoints:
            if end not in self.ases:
                raise TopologyError(f"link references unknown AS{end}")
        key = (min(link.a, link.b), max(link.a, link.b))
        if key in self._link_keys:
            raise TopologyError(f"duplicate link AS{link.a}-AS{link.b}")
        self.links.append(link)
        self._index_link(link)

    def _index_link(self, link: Link) -> None:
        key = (min(link.a, link.b), max(link.a, link.b))
        self._link_keys.add(key)
        if link.relationship is Relationship.CUSTOMER_PROVIDER:
            self._providers.setdefault(link.a, set()).add(link.b)
            self._customers.setdefault(link.b, set()).add(link.a)
            self._peers.setdefault(link.a, set())
            self._peers.setdefault(link.b, set())
        else:
            self._peers.setdefault(link.a, set()).add(link.b)
            self._peers.setdefault(link.b, set()).add(link.a)
            self._providers.setdefault(link.a, set())
            self._providers.setdefault(link.b, set())

    def has_link(self, x: int, y: int) -> bool:
        return (min(x, y), max(x, y)) in self._link_keys

    # -- adjacency views ---------------------------------------------------

    def providers_of(self, asn: int) -> frozenset[int]:
        """ASes that ``asn`` buys transit from."""
        return frozenset(self._providers.get(asn, ()))

    def customers_of(self, asn: int) -> frozenset[int]:
        """ASes that buy transit from ``asn``."""
        return frozenset(self._customers.get(asn, ()))

    def peers_of(self, asn: int) -> frozenset[int]:
        """Settlement-free peers of ``asn``."""
        return frozenset(self._peers.get(asn, ()))

    def neighbors_of(self, asn: int) -> frozenset[int]:
        return self.providers_of(asn) | self.customers_of(asn) | self.peers_of(asn)

    def ases_of_type(self, as_type: ASType) -> list[AutonomousSystem]:
        return [a for a in self.ases.values() if a.type is as_type]

    # -- whole-graph queries -----------------------------------------------

    def undirected_hop_distance(self, source: int) -> dict[int, int]:
        """BFS hop distances over the undirected graph (tunnel sizing)."""
        if source not in self.ases:
            raise TopologyError(f"unknown AS{source}")
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for asn in frontier:
                for nb in self.neighbors_of(asn):
                    if nb not in dist:
                        dist[nb] = dist[asn] + 1
                        nxt.append(nb)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        if not self.ases:
            return True
        first = next(iter(self.ases))
        return len(self.undirected_hop_distance(first)) == len(self.ases)


def _sample_count(rng: random.Random, mean: float, lo: int, hi: int) -> int:
    """A small integer around ``mean``, clamped to ``[lo, hi]``."""
    value = int(round(rng.gauss(mean, mean * 0.4)))
    return max(lo, min(hi, value))


def _quality(rng: random.Random, sigma: float) -> float:
    """A per-AS data-plane quality factor, lognormal around 1."""
    if sigma <= 0:
        return 1.0
    return math.exp(rng.gauss(0.0, sigma))


def generate_topology(config: TopologyConfig, rng: random.Random) -> Topology:
    """Generate the IPv4 Internet per ``config`` using ``rng``.

    Deterministic given ``(config, rng state)``.  The returned graph is
    guaranteed connected and every non-tier-1 AS has at least one provider
    (so valley-free routing can always reach the core).
    """
    config.validate()
    topo = Topology()
    next_asn = 1

    def new_as(as_type: ASType, region: int) -> AutonomousSystem:
        nonlocal next_asn
        # One base quality per AS; each family deviates only slightly
        # from it.  This encodes H1 into the world: an AS that forwards
        # IPv4 well forwards IPv6 (almost exactly) as well.
        base_quality = _quality(rng, config.link_quality_sigma)
        asys = AutonomousSystem(
            asn=next_asn,
            type=as_type,
            region=region,
            v4_quality=base_quality * _quality(rng, config.family_quality_sigma),
            v6_quality=base_quality * _quality(rng, config.family_quality_sigma),
        )
        next_asn += 1
        topo.add_as(asys)
        return asys

    # Tier-1 clique.
    tier1 = [new_as(ASType.TIER1, i % config.n_regions) for i in range(config.n_tier1)]
    for i, x in enumerate(tier1):
        for y in tier1[i + 1:]:
            topo.add_link(Link.peering(x.asn, y.asn))

    # Transit ASes: providers drawn mostly from tier-1s (shallow
    # hierarchy), sometimes from earlier (larger) transits.
    transits: list[AutonomousSystem] = []
    for i in range(config.n_transit):
        region = rng.randrange(config.n_regions)
        asys = new_as(ASType.TRANSIT, region)
        upstream_pool = tier1 + transits
        same_region = [u for u in upstream_pool if u.region == region]
        n_providers = _sample_count(rng, config.transit_provider_mean, 1, 4)
        chosen: set[int] = set()
        for _ in range(n_providers):
            if not transits or rng.random() < config.transit_tier1_attachment:
                pool = tier1
            elif same_region and rng.random() < 0.7:
                pool = same_region
            else:
                pool = upstream_pool
            pick = rng.choice(pool)
            if pick.asn not in chosen:
                chosen.add(pick.asn)
                topo.add_link(Link.customer_provider(asys.asn, pick.asn))
        transits.append(asys)

    # Transit-transit peering (denser within a region).
    for i, x in enumerate(transits):
        for y in transits[i + 1:]:
            if topo.has_link(x.asn, y.asn):
                continue
            prob = (
                config.transit_peering_prob
                if x.region == y.region
                else config.transit_interregion_peering_prob
            )
            if rng.random() < prob:
                topo.add_link(Link.peering(x.asn, y.asn))

    # Edge ASes (stubs and content).
    def attach_edge(as_type: ASType) -> AutonomousSystem:
        region = rng.randrange(config.n_regions)
        asys = new_as(as_type, region)
        regional = [t for t in transits if t.region == region] or transits
        n_providers = _sample_count(rng, config.edge_provider_mean, 1, 3)
        chosen: set[int] = set()
        for _ in range(n_providers):
            pick = rng.choice(regional)
            if pick.asn not in chosen:
                chosen.add(pick.asn)
                topo.add_link(Link.customer_provider(asys.asn, pick.asn))
        return asys

    for _ in range(config.n_stub):
        attach_edge(ASType.STUB)
    for _ in range(config.n_content):
        content = attach_edge(ASType.CONTENT)
        if rng.random() < config.content_peering_prob:
            candidates = [
                t for t in transits
                if t.region == content.region and not topo.has_link(content.asn, t.asn)
            ]
            if candidates:
                topo.add_link(Link.peering(content.asn, rng.choice(candidates).asn))

    # CDN ASes: wide, multi-region attachment.
    for _ in range(config.n_cdn):
        region = rng.randrange(config.n_regions)
        cdn = new_as(ASType.CDN, region)
        attach_pool = list(transits)
        rng.shuffle(attach_pool)
        attached = 0
        for transit in attach_pool:
            if attached >= config.cdn_attachments:
                break
            if topo.has_link(cdn.asn, transit.asn):
                continue
            # CDNs buy transit from a couple of ASes and peer with the rest.
            if attached < 2:
                topo.add_link(Link.customer_provider(cdn.asn, transit.asn))
            else:
                topo.add_link(Link.peering(cdn.asn, transit.asn))
            attached += 1
        if attached == 0:
            topo.add_link(Link.customer_provider(cdn.asn, rng.choice(tier1).asn))

    if not topo.is_connected():  # pragma: no cover - guaranteed by design
        raise TopologyError("generated topology is not connected")
    return topo
