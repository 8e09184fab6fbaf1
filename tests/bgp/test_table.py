"""Routing tables: LPM lookup and construction from the oracle."""

from __future__ import annotations

import random

import pytest

from repro.bgp.routing import PathOracle
from repro.bgp.table import RouteEntry, RoutingTable, build_routing_table
from repro.config import DualStackConfig, TopologyConfig
from repro.errors import RoutingError
from repro.net.addresses import AddressFamily, IPv4Address, Prefix
from repro.topology.dualstack import deploy_ipv6
from repro.topology.generator import generate_topology

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


class TestRouteEntry:
    def test_path_must_end_at_origin(self):
        with pytest.raises(RoutingError):
            RouteEntry(
                prefix=Prefix.parse("10.0.0.0/16"), origin_asn=5, as_path=(1, 2)
            )

    def test_empty_path_rejected(self):
        with pytest.raises(RoutingError):
            RouteEntry(prefix=Prefix.parse("10.0.0.0/16"), origin_asn=5, as_path=())


class TestRoutingTable:
    @pytest.fixture()
    def table(self) -> RoutingTable:
        t = RoutingTable(vantage_asn=1, family=V4)
        t.insert(
            RouteEntry(
                prefix=Prefix.parse("20.0.0.0/8"), origin_asn=2, as_path=(1, 2)
            )
        )
        t.insert(
            RouteEntry(
                prefix=Prefix.parse("20.1.0.0/16"), origin_asn=3, as_path=(1, 2, 3)
            )
        )
        return t

    def test_longest_prefix_wins(self, table):
        entry = table.lookup(IPv4Address.parse("20.1.2.3"))
        assert entry is not None and entry.origin_asn == 3

    def test_shorter_prefix_covers_rest(self, table):
        entry = table.lookup(IPv4Address.parse("20.9.2.3"))
        assert entry is not None and entry.origin_asn == 2

    def test_miss_returns_none(self, table):
        assert table.lookup(IPv4Address.parse("99.0.0.1")) is None

    def test_family_mismatch_rejected(self, table):
        from repro.net.addresses import IPv6Address

        with pytest.raises(RoutingError):
            table.lookup(IPv6Address.parse("::1"))
        with pytest.raises(RoutingError):
            table.insert(
                RouteEntry(
                    prefix=Prefix.parse("2001:db8::/48"),
                    origin_asn=9,
                    as_path=(1, 9),
                )
            )

    def test_len(self, table):
        assert len(table) == 2


class TestBuildRoutingTable:
    @pytest.fixture(scope="class")
    def built(self):
        config = TopologyConfig(n_tier1=3, n_transit=10, n_stub=25, n_content=12, n_cdn=1)
        topo = generate_topology(config, random.Random(31))
        ds = deploy_ipv6(topo, DualStackConfig(), random.Random(32))
        vantage = sorted(ds.v6_enabled)[0]
        oracle = PathOracle(ds, sources=[vantage])
        v4_table = build_routing_table(ds, oracle, vantage, V4)
        v6_table = build_routing_table(ds, oracle, vantage, V6)
        return ds, vantage, v4_table, v6_table

    def test_v4_covers_every_as(self, built):
        ds, vantage, v4_table, _ = built
        assert len(v4_table) == len(ds.asn_list)

    def test_v6_covers_only_v6_world(self, built):
        ds, _, _, v6_table = built
        assert 0 < len(v6_table) <= len(ds.v6_enabled)

    def test_paths_start_at_vantage(self, built):
        _, vantage, v4_table, _ = built
        for entry in v4_table.entries.values():
            assert entry.as_path[0] == vantage
            assert entry.as_path[-1] == entry.origin_asn

    def test_lookup_address_in_origin_block(self, built):
        ds, _, v4_table, _ = built
        origin = ds.asn_list[len(ds.asn_list) // 2]
        prefix = ds.allocator.prefix_of(origin, V4)
        entry = v4_table.lookup(prefix.address(7))
        assert entry is not None and entry.origin_asn == origin

    def test_destination_subset(self, built):
        ds, vantage, _, _ = built
        oracle = PathOracle(ds, sources=[vantage])
        subset = ds.asn_list[:5]
        table = build_routing_table(ds, oracle, vantage, V4, destinations=subset)
        assert len(table) == len(subset)
