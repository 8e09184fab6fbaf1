"""World assembly invariants (on the session-scoped small world)."""

from __future__ import annotations

import pytest

from repro.core.world import VANTAGE_TEMPLATES, build_world
from repro.dns.records import RecordType
from repro.dns.resolver import SINGLE_STACK
from repro.net.addresses import AddressFamily
from repro.net.tunnels import TunnelKind

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


class TestBuildWorld:
    def test_vantage_roster_matches_templates(self, small_world):
        names = {v.name for v in small_world.vantages}
        assert names == {t[0] for t in VANTAGE_TEMPLATES}

    def test_vantage_ases_are_v6_enabled(self, small_world):
        for vantage in small_world.vantages:
            assert vantage.asn in small_world.dualstack.v6_enabled

    def test_penn_starts_first_with_external_inputs(self, small_world):
        penn = next(v for v in small_world.vantages if v.name == "Penn")
        assert penn.start_round == 0
        assert penn.external_inputs
        others = [v for v in small_world.vantages if v.name != "Penn"]
        assert all(v.start_round > 0 for v in others)

    def test_deterministic_given_config(self, small_cfg, small_world):
        again = build_world(small_cfg)
        assert [v.asn for v in again.vantages] == [
            v.asn for v in small_world.vantages
        ]
        assert len(again.catalog) == len(small_world.catalog)


class TestAddressing:
    def test_addresses_unique_per_family(self, small_world):
        seen = set()
        for site in small_world.catalog.sites[:500]:
            addr = small_world.address_of(site, V4)
            assert addr not in seen
            seen.add(addr)

    def test_v4_address_owned_by_dest_as(self, small_world):
        site = small_world.catalog.sites[0]
        addr = small_world.address_of(site, V4)
        assert small_world.owner_of_address(addr) == site.dest_asn(V4)

    def test_v6_address_owned_by_v6_dest_as(self, small_world):
        site = next(
            s for s in small_world.catalog.sites if s.adoption_round is not None
        )
        addr = small_world.address_of(site, V6)
        assert small_world.owner_of_address(addr) == site.dest_asn(V6)


class TestZoneLifecycle:
    def test_aaaa_appears_at_adoption_round(self, small_cfg):
        world = build_world(small_cfg)
        site = next(
            s for s in world.catalog.sites
            if s.adoption_round is not None and s.adoption_round >= 2
            and s.w6d_event_round is None
        )
        cursor = world.dns_cursor(site.adoption_round - 1)
        env = world.environment_for(world.vantages[0], zones=cursor)
        env.resolver.sync()
        assert env.resolver.resolve(site.name) is SINGLE_STACK
        cursor.advance_to(site.adoption_round)
        env.resolver.sync()
        _, res6 = env.resolver.resolve(site.name)
        assert res6.addresses

    def test_event_only_participant_aaaa_is_transient(self, small_cfg):
        world = build_world(small_cfg)
        candidates = [
            s for s in world.catalog.sites
            if s.w6d_event_round is not None and s.adoption_round is None
        ]
        if not candidates:
            pytest.skip("no event-only participants in this draw")
        site = candidates[0]
        event = site.w6d_event_round
        cursor = world.dns_cursor(event)
        changed = cursor.watch()
        assert cursor.view().entry(site.name).rrset(RecordType.AAAA)
        cursor.advance_to(event + 1)
        assert site.name in changed
        entry = cursor.view().entry(site.name)
        assert entry.rrset(RecordType.AAAA) is None
        assert entry.rrset(RecordType.A)

    def test_cursor_pinned_at_past_round(self, small_cfg, small_campaign):
        world = small_campaign.world  # the campaign read to the end
        w6d_round = small_cfg.adoption.world_ipv6_day_round
        view = world.dns_cursor(w6d_round).view()
        for site in world.catalog.w6d_participants()[:10]:
            assert view.entry(site.name).rrset(RecordType.AAAA), site.name

    def test_timeline_matches_site_accessibility(self, small_cfg):
        world = build_world(small_cfg)
        cursor = world.dns_cursor()
        for round_idx in range(small_cfg.campaign.n_rounds):
            cursor.advance_to(round_idx)
            for site in world.catalog.sites:
                entry = cursor.entry(site.name)
                assert entry.rrset(RecordType.A)
                has_aaaa = entry.rrset(RecordType.AAAA) is not None
                assert has_aaaa == site.v6_accessible_at(round_idx)

    def test_cursors_share_entries(self, small_cfg):
        world = build_world(small_cfg)
        site = world.catalog.sites[0]
        a, b = world.dns_cursor(), world.dns_cursor()
        assert a is not b
        assert a.entry(site.name) is b.entry(site.name)
        assert world.dns_timeline() is world.dns_timeline()


class TestForwardingPaths:
    def test_paths_start_and_end_correctly(self, small_world):
        vantage = small_world.vantages[0]
        site = small_world.catalog.sites[0]
        path = small_world.forwarding_path(
            vantage.asn, site.dest_asn(V4), V4, alternate=False
        )
        assert path is not None
        assert path.as_path[0] == vantage.asn

    def test_6to4_destination_observed_behind_relay(self, small_world):
        ds = small_world.dualstack
        six_to_four = [
            asn for asn, t in ds.tunnels.items()
            if t.kind is TunnelKind.SIX_TO_FOUR
        ]
        if not six_to_four:
            pytest.skip("no 6to4 clients in this draw")
        client = six_to_four[0]
        tunnel = ds.tunnels[client]
        vantage = small_world.vantages[0]
        path = small_world.forwarding_path(vantage.asn, client, V6, alternate=False)
        if path is None:
            pytest.skip("relay unreachable from this vantage")
        assert path.as_path[-1] == tunnel.relay_asn
        assert tunnel in path.tunnels

    def test_alternate_path_differs_when_available(self, small_world):
        vantage = small_world.vantages[0]
        for site in small_world.catalog.sites[:200]:
            dest = site.dest_asn(V4)
            primary = small_world.forwarding_path(vantage.asn, dest, V4, False)
            alternate = small_world.forwarding_path(vantage.asn, dest, V4, True)
            if alternate is not None and alternate.as_path != primary.as_path:
                return  # found at least one genuine alternate
        pytest.skip("no multihomed destination among the first 200 sites")


class TestNat64:
    def test_default_world_has_no_gateways(self, small_world):
        assert small_world.nat64_gateways == ()
        vantage = small_world.vantages[0]
        assert small_world.nat64_gateway_for(vantage.asn) is None

    def test_dns64_world_deploys_gateways(self, dns64_cfg, dns64_campaign):
        world = dns64_campaign.world
        assert len(world.nat64_gateways) == dns64_cfg.dns64.n_gateways
        for gateway in world.nat64_gateways:
            assert (
                gateway.translation_quality
                == dns64_cfg.dns64.translation_quality
            )
            assert gateway.gateway_asn in world.dualstack.v6_enabled

    def test_translated_path_shape(self, dns64_campaign):
        world = dns64_campaign.world
        vantage = world.vantages[0]
        gateway = world.nat64_gateway_for(vantage.asn)
        assert gateway is not None
        site = next(
            s for s in world.catalog.sites if not s.v6_accessible_at(0)
        )
        owner = site.dest_asn(V4)
        path = world.translated_path(vantage.asn, owner)
        assert path is not None
        assert path.translated
        assert path.transition_kind == "translated"
        assert path.family is V6
        # apparent v6 leg ends at the gateway announcing 64:ff9b::/96
        assert path.as_path[-1] == gateway.gateway_asn
        # the hidden IPv4 leg adds RTT the BGP view does not show
        assert path.translation_hidden_hops >= 1
        assert path.effective_hops > len(path.as_path) - 1

    def test_translated_path_is_cached(self, dns64_campaign):
        world = dns64_campaign.world
        vantage = world.vantages[0]
        site = next(
            s for s in world.catalog.sites if not s.v6_accessible_at(0)
        )
        owner = site.dest_asn(V4)
        assert world.translated_path(vantage.asn, owner) is (
            world.translated_path(vantage.asn, owner)
        )

    def test_campaign_records_transitions(self, dns64_campaign):
        repo = dns64_campaign.repository
        total = sum(
            repo.database(name).table("transitions").n_rows
            for name in repo.vantage_names
        )
        assert total > 0
        kinds = {
            kind
            for name in repo.vantage_names
            for kind in repo.database(name)
            .table("transitions")
            .column("transition")
            .values_list()
        }
        assert "translated" in kinds

    def test_plain_campaign_records_none(self, small_campaign):
        repo = small_campaign.repository
        assert all(
            not repo.database(name).table("transitions").n_rows
            for name in repo.vantage_names
        )
