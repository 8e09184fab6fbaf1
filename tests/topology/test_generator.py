"""Topology generation invariants."""

from __future__ import annotations

import random

import pytest

from repro.config import TopologyConfig
from repro.errors import TopologyError
from repro.topology.asys import ASType, AutonomousSystem
from repro.topology.generator import Topology, generate_topology
from repro.topology.relationships import Link, Relationship


def _provider_depth(topo: Topology, asn: int) -> int:
    """Length of the shortest provider chain from ``asn`` to a tier-1."""
    depth, frontier, seen = 0, {asn}, {asn}
    while not any(topo.ases[a].type is ASType.TIER1 for a in frontier):
        frontier = {
            p for a in frontier for p in topo.providers_of(a) if p not in seen
        }
        assert frontier, f"AS{asn} has no provider chain to a tier-1"
        seen |= frontier
        depth += 1
    return depth


@pytest.fixture(scope="module")
def topo() -> Topology:
    config = TopologyConfig(
        n_tier1=4, n_transit=20, n_stub=60, n_content=30, n_cdn=2, n_regions=3
    )
    return generate_topology(config, random.Random(99))


class TestTopologyContainer:
    def test_duplicate_as_rejected(self):
        t = Topology()
        t.add_as(AutonomousSystem(asn=1, type=ASType.STUB, region=0))
        with pytest.raises(TopologyError):
            t.add_as(AutonomousSystem(asn=1, type=ASType.STUB, region=0))

    def test_link_requires_known_ases(self):
        t = Topology()
        t.add_as(AutonomousSystem(asn=1, type=ASType.STUB, region=0))
        with pytest.raises(TopologyError):
            t.add_link(Link.peering(1, 2))

    def test_duplicate_link_rejected(self):
        t = Topology()
        for asn in (1, 2):
            t.add_as(AutonomousSystem(asn=asn, type=ASType.TRANSIT, region=0))
        t.add_link(Link.peering(1, 2))
        with pytest.raises(TopologyError):
            t.add_link(Link.customer_provider(1, 2))

    def test_adjacency_views(self):
        t = Topology()
        for asn in (1, 2, 3):
            t.add_as(AutonomousSystem(asn=asn, type=ASType.TRANSIT, region=0))
        t.add_link(Link.customer_provider(1, 2))
        t.add_link(Link.peering(2, 3))
        assert t.providers_of(1) == {2}
        assert t.customers_of(2) == {1}
        assert t.peers_of(2) == {3}
        assert t.neighbors_of(2) == {1, 3}


class TestGeneratedTopology:
    def test_is_connected(self, topo):
        assert topo.is_connected()

    def test_every_non_tier1_has_provider(self, topo):
        for asn, asys in topo.ases.items():
            if asys.type is ASType.TIER1:
                assert not topo.providers_of(asn)
            else:
                assert topo.providers_of(asn), f"AS{asn} has no provider"

    def test_tier1_clique(self, topo):
        tier1 = [a.asn for a in topo.ases_of_type(ASType.TIER1)]
        for i, x in enumerate(tier1):
            for y in tier1[i + 1:]:
                assert y in topo.peers_of(x)

    def test_edge_ases_sell_no_transit(self, topo):
        for asys in topo.ases.values():
            if asys.type in (ASType.STUB, ASType.CONTENT):
                assert not topo.customers_of(asys.asn)

    def test_counts_match_config(self, topo):
        assert len(topo.ases_of_type(ASType.TIER1)) == 4
        assert len(topo.ases_of_type(ASType.TRANSIT)) == 20
        assert len(topo.ases_of_type(ASType.STUB)) == 60
        assert len(topo.ases_of_type(ASType.CONTENT)) == 30
        assert len(topo.ases_of_type(ASType.CDN)) == 2

    def test_no_provider_cycles(self, topo):
        """The provider relation must be acyclic (hierarchy property)."""
        state: dict[int, int] = {}

        def visit(asn: int) -> None:
            state[asn] = 1
            for p in topo.providers_of(asn):
                mark = state.get(p, 0)
                assert mark != 1, f"provider cycle through AS{asn}->AS{p}"
                if mark == 0:
                    visit(p)
            state[asn] = 2

        for asn in topo.ases:
            if state.get(asn, 0) == 0:
                visit(asn)

    def test_provider_depth_reaches_tier1(self, topo):
        for asn in topo.ases:
            assert _provider_depth(topo, asn) <= 5

    def test_deterministic_given_seed(self):
        config = TopologyConfig(n_tier1=3, n_transit=8, n_stub=20, n_content=10, n_cdn=1)
        a = generate_topology(config, random.Random(5))
        b = generate_topology(config, random.Random(5))
        assert [link.endpoints for link in a.links] == [link.endpoints for link in b.links]

    def test_undirected_hop_distance(self, topo):
        source = next(iter(topo.ases))
        dist = topo.undirected_hop_distance(source)
        assert dist[source] == 0
        assert len(dist) == len(topo.ases)
