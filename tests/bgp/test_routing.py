"""Valley-free routing: hand-built scenarios plus whole-graph invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DualStackConfig, TopologyConfig
from repro.bgp.routing import PathOracle, Route, RouteClass, compute_routes_to
from repro.errors import RoutingError
from repro.net.addresses import AddressFamily
from repro.topology.asys import ASType, AutonomousSystem
from repro.topology.dualstack import DualStackTopology, deploy_ipv6
from repro.topology.generator import Topology, generate_topology
from repro.topology.relationships import Link

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def make_dualstack(topo: Topology) -> DualStackTopology:
    """Wrap a hand-built topology with a fully mirrored v6 overlay."""
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


def diamond() -> Topology:
    """Two tier-1s (1, 2), two transits (3, 4), two stubs (5, 6).

    5 -> 3 -> 1 -- 2 <- 4 <- 6, plus 3--4 peering.
    """
    topo = Topology()
    for asn, typ in [
        (1, ASType.TIER1),
        (2, ASType.TIER1),
        (3, ASType.TRANSIT),
        (4, ASType.TRANSIT),
        (5, ASType.STUB),
        (6, ASType.STUB),
    ]:
        topo.add_as(AutonomousSystem(asn=asn, type=typ, region=0))
    topo.add_link(Link.peering(1, 2))
    topo.add_link(Link.customer_provider(3, 1))
    topo.add_link(Link.customer_provider(4, 2))
    topo.add_link(Link.peering(3, 4))
    topo.add_link(Link.customer_provider(5, 3))
    topo.add_link(Link.customer_provider(6, 4))
    return topo


class TestRoute:
    def test_hop_count(self):
        r = Route(path=(1, 2, 3), route_class=RouteClass.CUSTOMER)
        assert len(r.path) - 1 == 2
        assert r.source == 1 and r.path[-1] == 3

    def test_loop_rejected(self):
        with pytest.raises(RoutingError):
            Route(path=(1, 2, 1), route_class=RouteClass.CUSTOMER)


class TestDiamondRouting:
    @pytest.fixture(scope="class")
    def oracle(self):
        return PathOracle(make_dualstack(diamond()), sources=[5, 6, 3])

    def test_prefers_peering_shortcut(self, oracle):
        # 5 -> 3 -(peer)- 4 -> 6 beats 5 -> 3 -> 1 -> 2 -> 4 -> 6.
        assert oracle.as_path(5, 6, V4) == (5, 3, 4, 6)

    def test_direct_provider_route(self, oracle):
        assert oracle.as_path(5, 3, V4) == (5, 3)

    def test_customer_route_preferred_over_peer(self, oracle):
        # From 3 to 5: 5 is 3's customer.
        route = oracle.route(3, 5, V4)
        assert route.path == (3, 5)
        assert route.route_class is RouteClass.CUSTOMER

    def test_route_to_self(self, oracle):
        assert oracle.as_path(5, 5, V4) == (5,)

    def test_unknown_source_rejected(self, oracle):
        with pytest.raises(RoutingError):
            oracle.route(99, 5, V4)

    def test_v6_mirrors_v4_under_full_parity(self, oracle):
        assert oracle.as_path(5, 6, V6) == oracle.as_path(5, 6, V4)


class TestMissingPeeringDetour:
    def test_dropped_peering_forces_transit_detour(self):
        topo = diamond()
        ds = deploy_ipv6(
            topo,
            DualStackConfig(
                v6_enable_prob_tier1=1.0,
                v6_enable_prob_transit=1.0,
                v6_enable_prob_stub=1.0,
                v6_enable_prob_content=1.0,
                c2p_parity=1.0,
                peering_parity=0.0,  # the 3--4 shortcut disappears in v6
                tunnel_prob=0.0,
            ),
            random.Random(0),
        )
        oracle = PathOracle(ds, sources=[5])
        assert oracle.as_path(5, 6, V4) == (5, 3, 4, 6)
        assert oracle.as_path(5, 6, V6) == (5, 3, 1, 2, 4, 6)


class TestAlternateAndDetourRoutes:
    @pytest.fixture(scope="class")
    def multihomed(self):
        topo = diamond()
        # Multihome stub 5 to transit 4 as well.
        topo.add_link(Link.customer_provider(5, 4))
        return PathOracle(make_dualstack(topo), sources=[5])

    def test_alternate_uses_other_first_hop(self, multihomed):
        primary = multihomed.route(5, 6, V4)
        alternate = multihomed.alternate_route(5, 6, V4)
        assert primary.path == (5, 4, 6)
        assert alternate is not None
        assert alternate.path[1] != primary.path[1]
        assert alternate.path[-1] == 6

    def test_single_homed_source_has_no_alternate(self):
        oracle = PathOracle(make_dualstack(diamond()), sources=[6])
        assert oracle.alternate_route(6, 5, V4) is None

    def test_detour_route_enters_via_other_provider(self):
        topo = diamond()
        topo.add_link(Link.customer_provider(6, 3))  # 6 multihomes to 3
        oracle = PathOracle(make_dualstack(topo), sources=[5])
        primary = oracle.route(5, 6, V4)
        detour = oracle.detour_route(5, 6, V4)
        assert detour is not None
        assert detour.path[-1] == 6
        assert detour.path[-2] != primary.path[-2]

    def test_detour_none_for_single_homed_destination(self):
        oracle = PathOracle(make_dualstack(diamond()), sources=[5])
        assert oracle.detour_route(5, 6, V4) is None


def _is_valley_free(ds: DualStackTopology, path: tuple[int, ...], family) -> bool:
    """Check the up* peer? down* shape of an AS path."""
    # Phases: 0 = climbing, 1 = after peer/plateau, 2 = descending.
    phase = 0
    for a, b in zip(path, path[1:]):
        if b in ds.providers_of(a, family):
            if phase != 0:
                return False
        elif b in ds.peers_of(a, family):
            if phase == 2:
                return False
            phase = max(phase, 1)
            if phase == 1:
                phase = 2  # at most one peering edge
        elif b in ds.customers_of(a, family):
            phase = 2
        else:
            return False  # not even an adjacency
    return True


class TestWholeGraphInvariants:
    @pytest.fixture(scope="class")
    def generated(self):
        config = TopologyConfig(
            n_tier1=3, n_transit=15, n_stub=40, n_content=20, n_cdn=2
        )
        topo = generate_topology(config, random.Random(21))
        ds = deploy_ipv6(topo, DualStackConfig(), random.Random(22))
        sources = sorted(ds.v6_enabled)[:3]
        return ds, PathOracle(ds, sources=sources)

    def test_all_v4_paths_exist_and_are_valley_free(self, generated):
        ds, oracle = generated
        for src in oracle.sources:
            for dest in ds.asn_list:
                path = oracle.as_path(src, dest, V4)
                assert path is not None, f"no v4 path {src}->{dest}"
                assert path[0] == src and path[-1] == dest
                assert len(set(path)) == len(path)
                assert _is_valley_free(ds, path, V4)

    def test_v6_paths_valley_free_where_present(self, generated):
        ds, oracle = generated
        src = oracle.sources[0]
        reached = 0
        for dest in sorted(ds.v6_enabled):
            path = oracle.as_path(src, dest, V6)
            if path is None:
                continue
            reached += 1
            assert _is_valley_free(ds, path, V6)
        assert reached > 0

    def test_unreachable_family_returns_none(self, generated):
        ds, oracle = generated
        v4_only = [a for a in ds.asn_list if a not in ds.v6_enabled]
        if not v4_only:
            pytest.skip("every AS enabled v6 in this draw")
        assert oracle.route(oracle.sources[0], v4_only[0], V6) is None

    def test_compute_routes_to_rejects_unreachable_dest(self, generated):
        ds, _ = generated
        v4_only = [a for a in ds.asn_list if a not in ds.v6_enabled]
        if not v4_only:
            pytest.skip("every AS enabled v6 in this draw")
        with pytest.raises(RoutingError):
            compute_routes_to(ds, v4_only[0], V6)


@st.composite
def random_hierarchy(draw):
    """A small random Gao-Rexford-consistent topology."""
    n_transit = draw(st.integers(min_value=1, max_value=5))
    n_stub = draw(st.integers(min_value=1, max_value=8))
    topo = Topology()
    topo.add_as(AutonomousSystem(asn=1, type=ASType.TIER1, region=0))
    topo.add_as(AutonomousSystem(asn=2, type=ASType.TIER1, region=0))
    topo.add_link(Link.peering(1, 2))
    transits = []
    for i in range(n_transit):
        asn = 10 + i
        topo.add_as(AutonomousSystem(asn=asn, type=ASType.TRANSIT, region=0))
        provider = draw(st.sampled_from([1, 2] + transits))
        topo.add_link(Link.customer_provider(asn, provider))
        transits.append(asn)
    for i in range(n_stub):
        asn = 100 + i
        topo.add_as(AutonomousSystem(asn=asn, type=ASType.STUB, region=0))
        provider = draw(st.sampled_from([1, 2] + transits))
        topo.add_link(Link.customer_provider(asn, provider))
    return topo


class TestPropertyBased:
    @given(random_hierarchy())
    @settings(max_examples=40, deadline=None)
    def test_every_pair_routes_valley_free(self, topo):
        ds = make_dualstack(topo)
        sources = sorted(topo.ases)[:4]
        oracle = PathOracle(ds, sources=sources)
        for src in sources:
            for dest in sorted(topo.ases):
                path = oracle.as_path(src, dest, V4)
                assert path is not None
                assert path[0] == src and path[-1] == dest
                assert len(set(path)) == len(path)
                assert _is_valley_free(ds, path, V4)
