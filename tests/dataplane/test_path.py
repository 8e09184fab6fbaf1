"""Forwarding paths: apparent vs effective hops, tunnel accounting."""

from __future__ import annotations

import random

import pytest

from repro.config import DualStackConfig, TopologyConfig
from repro.dataplane.path import ForwardingPath
from repro.errors import RoutingError
from repro.net.addresses import AddressFamily
from repro.net.tunnels import Tunnel, TunnelKind
from repro.topology.dualstack import deploy_ipv6
from repro.topology.generator import generate_topology

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def plain_path(n_hops: int) -> ForwardingPath:
    return ForwardingPath(
        family=V4,
        as_path=tuple(range(1, n_hops + 2)),
        quality=1.0,
        tunnels=(),
        tunnel_quality=0.8,
    )


class TestHopAccounting:
    def test_apparent_hops(self):
        assert plain_path(3).apparent_hops == 3

    def test_no_tunnels_no_hidden_hops(self):
        path = plain_path(3)
        assert path.hidden_hops == 0
        assert path.effective_hops == 3
        assert path.total_quality == 1.0

    def test_tunnel_adds_hidden_hops_and_penalty(self):
        tunnel = Tunnel(client_asn=4, relay_asn=2, kind=TunnelKind.BROKER, hidden_hops=4)
        path = ForwardingPath(
            family=V6,
            as_path=(1, 2, 4),
            quality=1.0,
            tunnels=(tunnel,),
            tunnel_quality=0.8,
        )
        assert path.apparent_hops == 2
        assert path.hidden_hops == 3
        assert path.effective_hops == 5
        assert path.total_quality == pytest.approx(0.8)

    def test_destination(self):
        assert plain_path(2).as_path[-1] == 3


class TestFromAsPath:
    @pytest.fixture(scope="class")
    def ds(self):
        config = TopologyConfig(n_tier1=3, n_transit=10, n_stub=20, n_content=10, n_cdn=1)
        topo = generate_topology(config, random.Random(8))
        return deploy_ipv6(topo, DualStackConfig(), random.Random(9))

    def test_quality_multiplies_crossed_ases(self, ds):
        asns = ds.asn_list[:4]
        path = ForwardingPath.from_as_path(ds, tuple(asns), V4)
        expected = 1.0
        for asn in asns[1:]:
            expected *= ds.base.ases[asn].quality(V4)
        assert path.quality == pytest.approx(expected)

    def test_tunneled_adjacency_detected(self, ds):
        if not ds.tunnels:
            pytest.skip("this draw produced no tunnels")
        tunnel = next(iter(ds.tunnels.values()))
        path = ForwardingPath.from_as_path(
            ds, (tunnel.relay_asn, tunnel.client_asn), V6
        )
        assert path.tunnels == (tunnel,)
        assert path.effective_hops == 1 + tunnel.extra_hops

    def test_v4_never_reports_tunnels(self, ds):
        if not ds.tunnels:
            pytest.skip("this draw produced no tunnels")
        tunnel = next(iter(ds.tunnels.values()))
        path = ForwardingPath.from_as_path(
            ds, (tunnel.relay_asn, tunnel.client_asn), V4
        )
        assert path.tunnels == ()

    def test_unknown_as_rejected(self, ds):
        with pytest.raises(RoutingError):
            ForwardingPath.from_as_path(ds, (1, 999999), V4)

    def test_empty_path_rejected(self, ds):
        with pytest.raises(RoutingError):
            ForwardingPath.from_as_path(ds, (), V4)

    def test_describe_mentions_tunnel(self, ds):
        if not ds.tunnels:
            pytest.skip("this draw produced no tunnels")
        tunnel = next(iter(ds.tunnels.values()))
        path = ForwardingPath.from_as_path(
            ds, (tunnel.relay_asn, tunnel.client_asn), V6
        )
        assert "tunneled" in path.describe()
