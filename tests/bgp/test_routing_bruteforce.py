"""Cross-validate route selection against brute-force enumeration.

On tiny random topologies (with peering links, the hard part), enumerate
*every* simple valley-free path and pick the best by Gao-Rexford policy
(route class, then length).  The oracle's selected route must match that
optimum in (class, length) — the strongest correctness guarantee we can
give the control plane.
"""

from __future__ import annotations

import random
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.routing import PathOracle, RouteClass
from repro.config import DualStackConfig
from repro.net.addresses import AddressFamily
from repro.topology.asys import ASType, AutonomousSystem
from repro.topology.dualstack import DualStackTopology, deploy_ipv6
from repro.topology.generator import Topology
from repro.topology.relationships import Link

V4 = AddressFamily.IPV4


def full_overlay(topo: Topology) -> DualStackTopology:
    return deploy_ipv6(
        topo,
        DualStackConfig(
            v6_enable_prob_tier1=1.0,
            v6_enable_prob_transit=1.0,
            v6_enable_prob_stub=1.0,
            v6_enable_prob_content=1.0,
            v6_enable_prob_cdn=1.0,
            c2p_parity=1.0,
            peering_parity=1.0,
        ),
        random.Random(0),
    )


def enumerate_valley_free(
    topo: Topology, src: int, dest: int
) -> list[tuple[RouteClass, int]]:
    """All (class, length) of simple valley-free paths src -> dest.

    A path's route class at the source is determined by its first edge:
    down (customer route), peer (peer route), or up (provider route).
    Valley-free shape: up* peer? down*.
    """
    results: list[tuple[RouteClass, int]] = []

    def extend(node: int, visited: set[int], phase: int, first_edge: str | None):
        # phase 0 = may still climb; 1 = after the peer edge; 2 = descending.
        if node == dest:
            if first_edge is not None:
                route_class = {
                    "down": RouteClass.CUSTOMER,
                    "peer": RouteClass.PEER,
                    "up": RouteClass.PROVIDER,
                }[first_edge]
                results.append((route_class, len(visited) - 1))
            return
        if phase == 0:
            for provider in topo.providers_of(node):
                if provider not in visited:
                    extend(
                        provider, visited | {provider}, 0, first_edge or "up"
                    )
            for peer in topo.peers_of(node):
                if peer not in visited:
                    extend(peer, visited | {peer}, 2, first_edge or "peer")
        if phase in (0, 2):
            for customer in topo.customers_of(node):
                if customer not in visited:
                    extend(
                        customer, visited | {customer}, 2, first_edge or "down"
                    )

    extend(src, {src}, 0, None)
    return results


@st.composite
def tiny_topology(draw) -> Topology:
    """A random <=10-AS hierarchy with extra peering links."""
    topo = Topology()
    asn_counter = count(1)
    tier1 = [next(asn_counter) for _ in range(2)]
    for asn in tier1:
        topo.add_as(AutonomousSystem(asn=asn, type=ASType.TIER1, region=0))
    topo.add_link(Link.peering(*tier1))
    others: list[int] = []
    n_others = draw(st.integers(min_value=2, max_value=7))
    for i in range(n_others):
        asn = next(asn_counter)
        kind = ASType.TRANSIT if i < n_others // 2 else ASType.STUB
        topo.add_as(AutonomousSystem(asn=asn, type=kind, region=0))
        provider = draw(st.sampled_from(tier1 + others)) if others else tier1[0]
        topo.add_link(Link.customer_provider(asn, provider))
        others.append(asn)
    # Sprinkle peering links between non-tier1 ASes.
    n_peerings = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_peerings):
        if len(others) < 2:
            break
        x = draw(st.sampled_from(others))
        y = draw(st.sampled_from(others))
        if x != y and not topo.has_link(x, y):
            topo.add_link(Link.peering(x, y))
    return topo


class TestBruteForceAgreement:
    @given(tiny_topology())
    @settings(max_examples=60, deadline=None)
    def test_selected_route_is_policy_optimal(self, topo):
        """Selected routes agree with exhaustive valley-free enumeration.

        Exact agreement is asserted per route class where BGP guarantees
        it: the selected class always matches the best available class,
        and customer/peer routes are shortest within their class.  For
        provider routes the selected path may legitimately be *longer*
        than the graph's shortest valley-free path: an intermediate
        provider prefers (and therefore exports) its customer route even
        when a shorter provider route exists, so the source inherits the
        longer path - that is BGP, not a bug.
        """
        ds = full_overlay(topo)
        nodes = sorted(topo.ases)
        sources = nodes[: min(4, len(nodes))]
        oracle = PathOracle(ds, sources=sources)
        for src in sources:
            for dest in nodes:
                if src == dest:
                    continue
                candidates = enumerate_valley_free(topo, src, dest)
                selected = oracle.route(src, dest, V4)
                if not candidates:
                    assert selected is None
                    continue
                best_class, best_len = min(candidates)
                assert selected is not None, (
                    f"{src}->{dest}: oracle found nothing, "
                    f"brute force found {(best_class, best_len)}"
                )
                assert selected.route_class == best_class, (
                    f"{src}->{dest}: oracle class {selected.route_class}, "
                    f"optimum class {best_class}"
                )
                if best_class in (RouteClass.CUSTOMER, RouteClass.PEER):
                    assert (len(selected.path) - 1) == best_len, (
                        f"{src}->{dest}: oracle chose length "
                        f"{(len(selected.path) - 1)}, optimum is {best_len}"
                    )
                else:
                    assert (len(selected.path) - 1) >= best_len

    @given(tiny_topology())
    @settings(max_examples=30, deadline=None)
    def test_alternate_route_is_valid_and_distinct(self, topo):
        ds = full_overlay(topo)
        nodes = sorted(topo.ases)
        oracle = PathOracle(ds, sources=nodes[:3])
        for src in nodes[:3]:
            for dest in nodes:
                if src == dest:
                    continue
                primary = oracle.route(src, dest, V4)
                alternate = oracle.alternate_route(src, dest, V4)
                if alternate is None:
                    continue
                assert primary is not None
                assert alternate.path[0] == src
                assert alternate.path[-1] == dest
                assert alternate.path[1] != primary.path[1]
                # The alternate is at best as good as the primary.
                assert (alternate.route_class, len(alternate.path) - 1) >= (
                    primary.route_class,
                    len(primary.path) - 1,
                )
