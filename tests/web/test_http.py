"""The simulated HTTP client against hand-built dependencies."""

from __future__ import annotations

import pytest

from repro.config import PerformanceConfig
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.errors import DownloadError, UnreachableError
from repro.net.addresses import AddressFamily, IPv4Address, IPv6Address
from repro.rng import RngStreams
from repro.web.http import ContentEndpoint, HttpClient

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def make_client(path=None):
    model = ThroughputModel(PerformanceConfig(), RngStreams(5))
    if path is None:
        path = ForwardingPath(
            family=V4, as_path=(1, 2, 3), quality=1.0, tunnels=(), tunnel_quality=0.8
        )

    def content_lookup(name, family, round_idx):
        return ContentEndpoint(
            site_id=7, server_asn=3, server_speed=100.0, page_bytes=50_000
        )

    def path_provider(owner, site_id, family, round_idx):
        return path

    return HttpClient(
        model=model,
        content_lookup=content_lookup,
        path_provider=path_provider,
        owner_lookup=lambda address: 3,
    ), model


class TestGet:
    """Opening a session pins what every GET of the page reads."""

    def test_successful_download(self):
        client, model = make_client()
        session = client.open("site.example", IPv4Address(1), V4, 0)
        assert session.endpoint.page_bytes == 50_000
        assert session.path.as_path == (1, 2, 3)
        assert session.endpoint.server_asn == 3
        assert session.round_mean > 0
        assert session.round_mean == model.round_mean_speed(
            100.0, session.path, 7, 0
        )

    def test_speed_scales_with_path_factor(self):
        short = ForwardingPath(
            family=V4, as_path=(1, 3), quality=1.0, tunnels=(), tunnel_quality=0.8
        )
        long = ForwardingPath(
            family=V4,
            as_path=(1, 2, 4, 5, 6, 3),
            quality=1.0,
            tunnels=(),
            tunnel_quality=0.8,
        )
        fast_client, _ = make_client(short)
        slow_client, _ = make_client(long)
        fast = fast_client.open("s", IPv4Address(1), V4, 0)
        slow = slow_client.open("s", IPv4Address(1), V4, 0)
        assert fast.round_mean > slow.round_mean

    def test_unreachable_destination(self):
        client, _ = make_client()
        client_unreachable = HttpClient(
            model=client._model,
            content_lookup=client._content_lookup,
            path_provider=lambda *args: None,
            owner_lookup=lambda address: 3,
        )
        with pytest.raises(UnreachableError):
            client_unreachable.open("site.example", IPv4Address(1), V4, 0)

    def test_family_mismatch_rejected(self):
        client, _ = make_client()
        with pytest.raises(DownloadError):
            client.open("site.example", IPv6Address(1), V4, 0)


class TestContentEndpoint:
    def test_validation(self):
        with pytest.raises(DownloadError):
            ContentEndpoint(site_id=1, server_asn=2, server_speed=0, page_bytes=10)
        with pytest.raises(DownloadError):
            ContentEndpoint(site_id=1, server_asn=2, server_speed=10, page_bytes=0)
