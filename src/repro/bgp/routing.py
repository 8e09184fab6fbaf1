"""Valley-free route computation with Gao-Rexford preferences.

BGP policy routing is modelled the standard way:

* **Export rules** — an AS exports routes learned from customers to
  everyone; routes learned from peers or providers only to customers.
  Consequently every usable AS path is *valley-free*: zero or more
  customer-to-provider ("up") hops, at most one peering hop, then zero or
  more provider-to-customer ("down") hops.
* **Selection rules** — local preference first (customer routes over peer
  routes over provider routes), then shortest AS path, then lowest
  next-hop ASN as a deterministic tie-break.

Routes are computed per destination AS with three sweeps (customer BFS up
from the destination, one peer step, provider propagation down), which is
``O(E)`` per destination.  :class:`PathOracle` wraps this with a cache of
the (source, destination) paths the monitoring pipeline actually asks for.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from enum import IntEnum

#: sentinel length for "no route yet" comparisons.
_INF_INT = 10**9

from ..errors import RoutingError
from ..net.addresses import AddressFamily
from ..obs import metrics, span
from ..topology.dualstack import DualStackTopology

#: routing metrics: computations, cache hits, and accumulated compute
#: seconds (computations fire on demand inside monitoring rounds, so a
#: seconds counter — not a wrapping span — is what yields routes/sec).
_COMPUTES = metrics.counter("bgp.route_computations")
_CACHE_HITS = metrics.counter("bgp.route_cache_hits")
_COMPUTE_SECONDS = metrics.counter("bgp.compute_seconds")


class RouteClass(IntEnum):
    """Gao-Rexford local preference classes (lower = preferred)."""

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2


@dataclass(frozen=True)
class Route:
    """A selected route: the full AS path (source first, destination last)."""

    path: tuple[int, ...]
    route_class: RouteClass

    @property
    def source(self) -> int:
        return self.path[0]

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise RoutingError("empty AS path")
        if len(set(self.path)) != len(self.path):
            raise RoutingError(f"AS path has a loop: {self.path}")

    @classmethod
    def trusted(cls, path: tuple[int, ...], route_class: RouteClass) -> "Route":
        """Construct without the O(n) loop/emptiness validation.

        For paths the oracle derives from already loop-free routing state
        (Dijkstra trees, explicitly membership-checked concatenations);
        the public constructor keeps validating for everything else.
        """
        route = cls.__new__(cls)
        object.__setattr__(route, "path", path)
        object.__setattr__(route, "route_class", route_class)
        return route


@dataclass
class _DestinationRoutes:
    """All per-AS routing state toward one destination.

    ``qcost`` entries are accumulated ``-log(quality)`` along the path
    (source excluded) — the tie-break that models operators preferring
    the best-provisioned of several equal-length routes.
    """

    dest: int
    #: customer-route length, quality cost, and parent per AS.
    dist_c: dict[int, int]
    qcost_c: dict[int, float]
    parent_c: dict[int, int]
    #: best route per AS: (class, length, quality cost, next-hop).
    best: dict[int, tuple[RouteClass, int, float, int]]

    def customer_path(self, asn: int) -> tuple[int, ...]:
        """Reconstruct the pure-customer path from ``asn`` down to dest."""
        path = [asn]
        cursor = asn
        while cursor != self.dest:
            cursor = self.parent_c[cursor]
            path.append(cursor)
        return tuple(path)

    def best_path(self, asn: int) -> tuple[int, ...] | None:
        """Reconstruct ``asn``'s selected path, or None if unreachable."""
        if asn == self.dest:
            return (asn,)
        entry = self.best.get(asn)
        if entry is None:
            return None
        route_class, _, _, nexthop = entry
        if route_class is RouteClass.CUSTOMER:
            return self.customer_path(asn)
        if route_class is RouteClass.PEER:
            return (asn,) + self.customer_path(nexthop)
        tail = self.best_path(nexthop)
        if tail is None:  # pragma: no cover - inconsistent state
            raise RoutingError(f"broken provider route at AS{asn}")
        return (asn,) + tail


def compute_routes_to(
    topo: DualStackTopology,
    dest: int,
    family: AddressFamily,
) -> _DestinationRoutes:
    """Compute every AS's selected route toward ``dest`` in ``family``.

    Selection is lexicographic: route class (customer < peer < provider),
    then AS-path length, then accumulated quality cost (operators prefer
    the best-provisioned of equal-length candidates), then lowest
    next-hop ASN.  The quality tie-break matters to H2: the IPv4 best
    route is best *among several*; when IPv6 lacks that option, the
    fallback is systematically no better - "less efficient paths".
    """
    if not topo.reaches(dest, family):
        raise RoutingError(f"AS{dest} is not on the {family} Internet")

    def weight(asn: int) -> float:
        return -math.log(topo.base.ases[asn].quality(family))

    # Sweep 1 - customer routes: lexicographic Dijkstra up provider links.
    dist_c: dict[int, int] = {dest: 0}
    qcost_c: dict[int, float] = {dest: 0.0}
    parent_c: dict[int, int] = {}
    heap: list[tuple[int, float, int]] = [(0, 0.0, dest)]
    settled: set[int] = set()
    while heap:
        dist, qcost, asn = heapq.heappop(heap)
        if asn in settled:
            continue
        settled.add(asn)
        step = weight(asn)
        for provider in sorted(topo.providers_of(asn, family)):
            cand = (dist + 1, qcost + step)
            current = (
                dist_c.get(provider, _INF_INT),
                qcost_c.get(provider, math.inf),
            )
            if cand < current:
                dist_c[provider], qcost_c[provider] = cand
                parent_c[provider] = asn
                heapq.heappush(heap, (cand[0], cand[1], provider))

    best: dict[int, tuple[RouteClass, int, float, int]] = {}
    for asn, dist in dist_c.items():
        if asn == dest:
            continue
        best[asn] = (RouteClass.CUSTOMER, dist, qcost_c[asn], parent_c[asn])

    # Sweep 2 - peer routes: one peering hop into the customer cone.
    for asn, dist in list(dist_c.items()):
        for peer in sorted(topo.peers_of(asn, family)):
            if peer == dest:
                continue
            candidate = (
                RouteClass.PEER, dist + 1, qcost_c[asn] + weight(asn), asn
            )
            current = best.get(peer)
            if current is None or candidate < current:
                best[peer] = candidate

    # Sweep 3 - provider routes: propagate best routes down customer links.
    # Lexicographic Dijkstra seeded with every AS holding any route.
    pheap: list[tuple[int, float, int]] = []
    for asn, (_, length, qcost, _) in best.items():
        heapq.heappush(pheap, (length, qcost, asn))
    if dest in topo.base.ases:
        heapq.heappush(pheap, (0, 0.0, dest))
    settled = set()
    while pheap:
        length, qcost, asn = heapq.heappop(pheap)
        if asn in settled:
            continue
        settled.add(asn)
        if asn == dest:
            exported_len, exported_q = 0, 0.0
        else:
            entry = best.get(asn)
            if entry is None:  # pragma: no cover - seeded nodes only
                continue
            exported_len, exported_q = entry[1], entry[2]
        step = weight(asn)
        for customer in sorted(topo.customers_of(asn, family)):
            if customer == dest:
                continue
            candidate = (
                RouteClass.PROVIDER, exported_len + 1, exported_q + step, asn
            )
            current = best.get(customer)
            if current is None or candidate < current:
                best[customer] = candidate
                heapq.heappush(pheap, (candidate[1], candidate[2], customer))

    return _DestinationRoutes(
        dest=dest, dist_c=dist_c, qcost_c=qcost_c, parent_c=parent_c, best=best
    )


class PathOracle:
    """Cached (source, destination, family) AS-path lookups.

    Route state is computed per destination and immediately distilled into
    the source paths requested, so memory stays proportional to the number
    of distinct queries, not ``destinations x ASes``.
    """

    def __init__(self, topo: DualStackTopology, sources: list[int]) -> None:
        for src in sources:
            if src not in topo.base.ases:
                raise RoutingError(f"unknown source AS{src}")
        self.topo = topo
        self.sources = list(sources)
        self._cache: dict[
            tuple[int, AddressFamily], dict[int, tuple[Route | None, Route | None]]
        ] = {}

    def _routes_for(
        self, dest: int, family: AddressFamily
    ) -> dict[int, tuple[Route | None, Route | None]]:
        key = (dest, family)
        cached = self._cache.get(key)
        if cached is not None:
            _CACHE_HITS.inc()
            return cached
        t0 = time.perf_counter()
        with span("bgp.compute", dest=dest, family=family.name):
            state = compute_routes_to(self.topo, dest, family)
            per_source: dict[int, tuple[Route | None, Route | None]] = {}
            for src in self.sources:
                per_source[src] = self._extract(state, src, family)
        _COMPUTES.inc()
        _COMPUTE_SECONDS.inc(time.perf_counter() - t0)
        self._cache[key] = per_source
        return per_source

    def _extract(
        self, state: _DestinationRoutes, src: int, family: AddressFamily
    ) -> tuple[Route | None, Route | None]:
        """Best and second-best (distinct first hop) routes at ``src``."""
        if src == state.dest:
            route = Route.trusted((src,), RouteClass.CUSTOMER)
            return route, None

        def weight(asn: int) -> float:
            return -math.log(self.topo.base.ases[asn].quality(family))

        candidates: list[
            tuple[RouteClass, int, float, int, tuple[int, ...]]
        ] = []
        for customer in sorted(self.topo.customers_of(src, family)):
            dist = state.dist_c.get(customer)
            if dist is not None:
                path = (src,) + state.customer_path(customer)
                qcost = state.qcost_c[customer] + weight(customer)
                candidates.append(
                    (RouteClass.CUSTOMER, dist + 1, qcost, customer, path)
                )
        for peer in sorted(self.topo.peers_of(src, family)):
            dist = state.dist_c.get(peer)
            if dist is not None:
                path = (src,) + state.customer_path(peer)
                qcost = state.qcost_c[peer] + weight(peer)
                candidates.append((RouteClass.PEER, dist + 1, qcost, peer, path))
        for provider in sorted(self.topo.providers_of(src, family)):
            if provider == state.dest:
                candidates.append(
                    (RouteClass.PROVIDER, 1, weight(provider), provider,
                     (src, provider))
                )
                continue
            entry = state.best.get(provider)
            if entry is not None:
                tail = state.best_path(provider)
                if tail is not None and src not in tail:
                    candidates.append(
                        (
                            RouteClass.PROVIDER,
                            entry[1] + 1,
                            entry[2] + weight(provider),
                            provider,
                            (src,) + tail,
                        )
                    )
        if not candidates:
            return None, None
        candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3]))
        primary = Route.trusted(candidates[0][4], candidates[0][0])
        alternate = None
        for cand in candidates[1:]:
            if cand[3] != candidates[0][3]:
                alternate = Route.trusted(cand[4], cand[0])
                break
        return primary, alternate

    # -- public API ----------------------------------------------------------

    def route(self, src: int, dest: int, family: AddressFamily) -> Route | None:
        """The selected route from ``src`` to ``dest``, or None."""
        if src not in self.sources:
            raise RoutingError(f"AS{src} is not a registered source")
        if not self.topo.reaches(dest, family):
            return None
        return self._routes_for(dest, family)[src][0]

    def alternate_route(
        self, src: int, dest: int, family: AddressFamily
    ) -> Route | None:
        """The best route with a different first hop, if one exists."""
        if src not in self.sources:
            raise RoutingError(f"AS{src} is not a registered source")
        if not self.topo.reaches(dest, family):
            return None
        return self._routes_for(dest, family)[src][1]

    def detour_route(
        self, src: int, dest: int, family: AddressFamily
    ) -> Route | None:
        """A route entering ``dest`` through a different last hop.

        Models a destination-side reroute (the destination shifting a
        prefix announcement to another provider): the path runs to one of
        the destination's other providers, then down the final
        customer link.  Returns None when the destination is single-homed
        in ``family`` or no loop-free detour exists.
        """
        primary = self.route(src, dest, family)
        if primary is None or len(primary.path) < 2:
            return None
        last_hop = primary.path[-2]
        for provider in sorted(self.topo.providers_of(dest, family)):
            if provider == last_hop:
                continue
            head = self.route(src, provider, family)
            if head is not None and dest not in head.path:
                return Route.trusted(head.path + (dest,), head.route_class)
        return None

    def as_path(
        self, src: int, dest: int, family: AddressFamily
    ) -> tuple[int, ...] | None:
        """The selected AS path (source first), or None if unreachable."""
        route = self.route(src, dest, family)
        return route.path if route is not None else None
