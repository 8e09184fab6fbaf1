"""The simulated HTTP client against hand-built bindings."""

from __future__ import annotations

import pytest

from repro.config import FaultConfig, PerformanceConfig
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.errors import DownloadError, UnreachableError
from repro.faults.plan import FaultPlan
from repro.net.addresses import AddressFamily, IPv4Address, IPv6Address
from repro.net.tunnels import Tunnel, TunnelKind
from repro.rng import RngStreams
from repro.sites.behaviour import BehaviourKind, SiteBehaviour
from repro.web.http import ContentEndpoint, HttpClient, RouteBinding

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6

ENDPOINT = ContentEndpoint(
    site_id=7, server_asn=3, server_speed=100.0, page_bytes=50_000
)


def path_of(as_path, family=V4, tunnels=()) -> ForwardingPath:
    return ForwardingPath(
        family=family, as_path=as_path, quality=1.0, tunnels=tunnels,
        tunnel_quality=0.8,
    )


def make_client(
    route=lambda alternate: path_of((1, 2, 3)),
    behaviour=None,
    faults=None,
    model=None,
):
    """A client whose binder binds every address to ``route``; it also
    returns the list of (name, family) pairs the binder was asked for."""
    if model is None:
        model = ThroughputModel(PerformanceConfig(), RngStreams(5))
    bound = []

    def binder(final_name, address, family):
        bound.append((final_name, family))
        return RouteBinding(
            ENDPOINT, family, 3, behaviour or SiteBehaviour.stationary(), route
        )

    return HttpClient(model=model, binder=binder, faults=faults), model, bound


class TestGet:
    """Opening a session pins what every GET of the page reads."""

    def test_successful_download(self):
        client, model, _ = make_client()
        session = client.open("site.example", IPv4Address(1), V4, 0)
        assert session.endpoint.page_bytes == 50_000
        assert session.path.as_path == (1, 2, 3)
        assert session.endpoint.server_asn == 3
        assert session.round_mean > 0
        assert session.round_mean == model.round_mean_speed(
            100.0, session.path, model.path_factor(session.path), 7, 0
        )

    def test_speed_scales_with_path_factor(self):
        fast_client, _, _ = make_client(lambda alternate: path_of((1, 3)))
        slow_client, _, _ = make_client(
            lambda alternate: path_of((1, 2, 4, 5, 6, 3))
        )
        fast = fast_client.open("s", IPv4Address(1), V4, 0)
        slow = slow_client.open("s", IPv4Address(1), V4, 0)
        assert fast.round_mean > slow.round_mean

    def test_unreachable_destination(self):
        client, _, _ = make_client(lambda alternate: None)
        with pytest.raises(UnreachableError):
            client.open("site.example", IPv4Address(1), V4, 0)

    def test_family_mismatch_rejected(self):
        client, _, _ = make_client()
        with pytest.raises(DownloadError):
            client.open("site.example", IPv6Address(1), V4, 0)
        # Also once the address is bound.
        client.open("site.example", IPv4Address(1), V4, 0)
        with pytest.raises(DownloadError):
            client.open("site.example", IPv4Address(1), V6, 0)


class TestBindings:
    """The round-invariant half is bound once per (name, address)."""

    def test_one_binding_per_name_and_address(self):
        client, _, bound = make_client()
        for round_idx in range(5):
            client.open("a.example", IPv4Address(1), V4, round_idx)
            client.open("a.example", IPv6Address(1), V6, round_idx)
        assert bound == [("a.example", V4), ("a.example", V6)]
        # A new address (a DNS change) binds again.
        client.open("a.example", IPv4Address(2), V4, 5)
        assert bound[-1] == ("a.example", V4) and len(bound) == 3

    def test_path_change_switches_to_the_alternate_path(self):
        main, detour = path_of((1, 2, 3)), path_of((1, 4, 5, 3))
        asked = []

        def route(alternate):
            asked.append(alternate)
            return detour if alternate else main

        step = SiteBehaviour(
            kind=BehaviourKind.STEP_DOWN, change_round=4, magnitude=0.5,
            path_change=True,
        )
        client, model, _ = make_client(route, behaviour=step)
        paths = [
            client.open("s", IPv4Address(1), V4, r).path for r in range(8)
        ]
        assert paths == [main] * 4 + [detour] * 4
        # Each flag's path is asked for once and kept with its factor.
        assert asked == [False, True]

    def test_behaviour_scales_the_endpoint_speed_per_round(self):
        trend = SiteBehaviour(kind=BehaviourKind.TREND_UP, slope_per_round=0.1)
        client, model, _ = make_client(behaviour=trend)
        for round_idx in (0, 3):
            session = client.open("s", IPv4Address(1), V4, round_idx)
            speed = 100.0 * trend.multiplier(V4, round_idx)
            assert session.round_mean == model.round_mean_speed(
                speed, session.path, model.path_factor(session.path), 7,
                round_idx,
            )

    def test_broken_tunnel_is_unreachable_for_its_round_only(self):
        plan = FaultPlan(FaultConfig(tunnel_breakage_rate=0.5), master_seed=3)
        rounds = range(40)
        broken = [plan.tunnel_broken(3, r) for r in rounds]
        # A broken round followed by a clean one.
        down = next(r for r in rounds if broken[r] and not broken[r + 1])
        tunnel = Tunnel(
            client_asn=3, relay_asn=9, kind=TunnelKind.BROKER, hidden_hops=2
        )
        tunneled = path_of((1, 9, 3), family=V6, tunnels=(tunnel,))
        client, _, bound = make_client(lambda alternate: tunneled, faults=plan)
        with pytest.raises(UnreachableError):
            client.open("s", IPv6Address(1), V6, down)
        assert client.open("s", IPv6Address(1), V6, down + 1).path is tunneled
        assert len(bound) == 1


class TestContentEndpoint:
    def test_validation(self):
        with pytest.raises(DownloadError):
            ContentEndpoint(site_id=1, server_asn=2, server_speed=0, page_bytes=10)
        with pytest.raises(DownloadError):
            ContentEndpoint(site_id=1, server_asn=2, server_speed=10, page_bytes=0)
