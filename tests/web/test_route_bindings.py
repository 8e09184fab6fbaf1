"""Route bindings against a built world: DNS64, adoption and re-binding."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.world import build_world
from repro.errors import UnreachableError
from repro.net.addresses import AddressFamily
from repro.net.nat64 import is_nat64_mapped

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


@pytest.fixture(scope="module")
def dns64_world(small_cfg):
    cfg = dataclasses.replace(
        small_cfg, dns64=dataclasses.replace(small_cfg.dns64, enabled=True)
    )
    return build_world(cfg)


def _adopter(world):
    """A site that adopts IPv6 after round 1 and has no event-day AAAA."""
    return next(
        s for s in world.catalog.sites
        if s.adoption_round is not None and s.adoption_round >= 2
        and s.w6d_event_round is None
    )


def _open_v6(env, name, round_idx):
    env.resolver.sync()
    res4, res6 = env.resolver.resolve(name)
    address = res6.addresses[0]
    try:
        session = env.client.open(res6.final_name, address, V6, round_idx)
    except UnreachableError:
        session = None
    return address, session


class TestDns64Bindings:
    def test_synthesized_aaaa_binds_ipv4_content_over_the_translated_path(
        self, dns64_world
    ):
        world = dns64_world
        site = _adopter(world)
        vantage = world.vantages[0]
        round_idx = site.adoption_round - 1
        cursor = world.dns_cursor(round_idx)
        env = world.environment_for(vantage, zones=cursor)
        address, session = _open_v6(env, site.name, round_idx)
        assert is_nat64_mapped(address)
        binding = env.client._bindings[(site.name, address)]
        assert binding.translated and binding.content_family is V4
        assert binding.endpoint == world.content_endpoint(site, V4)
        assert binding.owner_asn == world.owner_of_address(address)
        gateway = world.nat64_gateway_for(vantage.asn)
        assert binding.gateway_asn == (gateway and gateway.gateway_asn)
        translated = world.translated_path(vantage.asn, binding.owner_asn)
        if translated is None:
            assert session is None
        else:
            assert session.path is translated and session.path.translated
            assert session.endpoint.page_bytes == site.page.size(V4)

    def test_adoption_round_rebinds_the_site(self, dns64_world):
        world = dns64_world
        site = _adopter(world)
        vantage = world.vantages[0]
        before = site.adoption_round - 1
        cursor = world.dns_cursor(before)
        env = world.environment_for(vantage, zones=cursor)
        synthesized, _ = _open_v6(env, site.name, before)
        cursor.advance_to(site.adoption_round)
        real, _ = _open_v6(env, site.name, site.adoption_round)
        assert real == world.address_of(site, V6) and real != synthesized
        bindings = env.client._bindings
        assert bindings[(site.name, synthesized)].translated
        adopted = bindings[(site.name, real)]
        assert not adopted.translated and adopted.content_family is V6
        assert adopted.endpoint == world.content_endpoint(site, V6)
        assert adopted.owner_asn == site.dest_asn(V6)
