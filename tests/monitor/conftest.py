"""Hand-built monitoring environment for the monitor unit tests.

A miniature, world-free setup: four sites with controlled properties —
a healthy dual-stack site, a v4-only site, a dual-stack site serving
different page sizes per family, and a dual-stack site whose IPv6 is
slowed by a longer path.
"""

from __future__ import annotations

import random

import pytest

from repro.config import MonitorConfig, PerformanceConfig
from repro.dataplane.clock import SimulationClock
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.dns.records import RecordType, ResourceRecord
from repro.dns.resolver import Resolver
from repro.dns.zone import ZoneStore
from repro.monitor.tool import VantageEnvironment
from repro.monitor.vantage import VantageKind, VantagePoint
from repro.net.addresses import AddressFamily, IPv4Address, IPv6Address
from repro.rng import RngStreams
from repro.sites.behaviour import SiteBehaviour
from repro.web.http import ContentEndpoint, HttpClient, RouteBinding

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6

#: site-id assignments for the mini population.
SITES = {
    "healthy.example": 0,
    "v4only.example": 1,
    "diffpages.example": 2,
    "slowv6.example": 3,
}
PAGE_BYTES = {
    ("healthy.example", V4): 40_000,
    ("healthy.example", V6): 40_000,
    ("diffpages.example", V4): 40_000,
    ("diffpages.example", V6): 80_000,  # fails the 6% identity check
    ("slowv6.example", V4): 40_000,
    ("slowv6.example", V6): 40_000,
    ("v4only.example", V4): 40_000,
}


def short_path(family) -> ForwardingPath:
    return ForwardingPath(
        family=family, as_path=(1, 2), quality=1.0, tunnels=(), tunnel_quality=0.8
    )


def long_path(family) -> ForwardingPath:
    return ForwardingPath(
        family=family,
        as_path=(1, 3, 4, 5, 6, 2),
        quality=1.0,
        tunnels=(),
        tunnel_quality=0.8,
    )


@pytest.fixture()
def mini_env() -> VantageEnvironment:
    store = ZoneStore()
    zone = store.zone_for("example.")
    for name, sid in SITES.items():
        zone.add(ResourceRecord(name, RecordType.A, IPv4Address(100 + sid)))
        if name != "v4only.example":
            zone.add(ResourceRecord(name, RecordType.AAAA, IPv6Address(100 + sid)))

    model = ThroughputModel(
        PerformanceConfig(round_noise_sigma=0.0), RngStreams(3)
    )

    def binder(name, address, family):
        site_id = SITES[name]
        path = (
            long_path(family)
            if site_id == SITES["slowv6.example"] and family is V6
            else short_path(family)
        )
        endpoint = ContentEndpoint(
            site_id=site_id,
            server_asn=2,
            server_speed=100.0,
            page_bytes=PAGE_BYTES[(name, family)],
        )
        return RouteBinding(
            endpoint, family, 2, SiteBehaviour.stationary(),
            lambda alternate: path,
        )

    client = HttpClient(model=model, binder=binder)
    return VantageEnvironment(
        resolver=Resolver(store=store),
        client=client,
        clock=SimulationClock.weekly(),
        site_list=lambda round_idx: sorted(SITES),
        external_inputs=lambda round_idx: [],
        site_id_of=lambda name: SITES[name],
    )


@pytest.fixture()
def mini_vantage() -> VantagePoint:
    return VantagePoint(
        name="Mini",
        location="Testville",
        asn=1,
        start_round=0,
        as_path_available=True,
        white_listed=False,
        kind=VantageKind.ACADEMIC,
    )


@pytest.fixture()
def monitor_config() -> MonitorConfig:
    return MonitorConfig(min_rounds=3)


@pytest.fixture()
def mini_rng() -> random.Random:
    return random.Random(17)
