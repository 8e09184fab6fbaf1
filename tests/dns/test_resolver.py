"""The resolver: per-site A+AAAA pairs, CNAME chains, invalidation, DNS64."""

from __future__ import annotations

import pytest

from repro.dns.records import RecordType, ResourceRecord
from repro.dns.resolver import SINGLE_STACK, Resolver
from repro.dns.zone import ZoneStore
from repro.errors import DnsError
from repro.net.addresses import IPv4Address, IPv6Address
from repro.net.nat64 import is_nat64_mapped, synthesize_aaaa
from repro.obs import metrics


def _walks() -> float:
    return metrics.counter("dns.zone_walks").value


@pytest.fixture()
def store() -> ZoneStore:
    store = ZoneStore()
    zone = store.zone_for("example.")
    zone.add(ResourceRecord("dual.example.", RecordType.A, IPv4Address(1), ttl=60))
    zone.add(ResourceRecord("dual.example.", RecordType.AAAA, IPv6Address(1), ttl=60))
    zone.add(ResourceRecord("v4only.example.", RecordType.A, IPv4Address(2), ttl=60))
    zone.add(ResourceRecord("alias.example.", RecordType.CNAME, "dual.example."))
    zone.add(ResourceRecord("loop-a.example.", RecordType.CNAME, "loop-b.example."))
    zone.add(ResourceRecord("loop-b.example.", RecordType.CNAME, "loop-a.example."))
    return store


@pytest.fixture()
def resolver(store) -> Resolver:
    return Resolver(store=store)


def _cdn_store(*names: str) -> ZoneStore:
    """A dual-stack CDN edge and customer names CNAMEd onto it."""
    store = ZoneStore()
    zone = store.zone_for("example.")
    zone.add(ResourceRecord("edge.cdn.example.", RecordType.A, IPv4Address(7)))
    zone.add(ResourceRecord("edge.cdn.example.", RecordType.AAAA, IPv6Address(7)))
    for name in names:
        zone.add(ResourceRecord(name, RecordType.CNAME, "edge.cdn.example."))
    return store


class TestResolve:
    def test_resolves_address(self, resolver):
        res4, res6 = resolver.resolve("dual.example.")
        assert res4.addresses == (IPv4Address(1),)
        assert res4.final_name == "dual.example."
        assert res6.addresses == (IPv6Address(1),)

    def test_name_is_case_folded(self, resolver):
        res4, _ = resolver.resolve("DUAL.example.")
        assert res4.addresses == (IPv4Address(1),)

    def test_missing_family_raises_norecord(self, resolver, store):
        """A name answering only AAAA is filed single-stack: no A record."""
        store.zone_for("example.").add(
            ResourceRecord("v6only.example.", RecordType.AAAA, IPv6Address(3))
        )
        assert resolver.resolve("v6only.example.") is SINGLE_STACK
        assert "v6only.example." in resolver.no_v4
        assert "v6only.example." in resolver.v6

    def test_unknown_name_raises_nxdomain(self, resolver, store):
        """A CNAME onto a name that does not exist answers neither family."""
        store.zone_for("example.").add(
            ResourceRecord("dangling.example.", RecordType.CNAME, "ghost.example.")
        )
        assert resolver.resolve("dangling.example.") is SINGLE_STACK
        assert "dangling.example." in resolver.no_v4
        assert "dangling.example." not in resolver.v6

    def test_cname_chain_followed(self, resolver):
        res4, _ = resolver.resolve("alias.example.")
        assert res4.final_name == "dual.example."
        assert res4.addresses == (IPv4Address(1),)

    def test_cname_loop_detected(self, resolver):
        with pytest.raises(DnsError):
            resolver.resolve("loop-a.example.")


class TestCaching:
    def test_second_query_hits_cache(self, resolver):
        first = resolver.resolve("dual.example.")
        walks = _walks()
        second = resolver.resolve("dual.example.")
        # The shared answers memo hands back the very same objects.
        assert second[0] is first[0] and second[1] is first[1]
        assert _walks() == walks

    def test_negative_answers_are_cached(self, resolver):
        resolver.resolve("v4only.example.")
        walks = _walks()
        assert resolver.resolve("v4only.example.") is SINGLE_STACK
        assert resolver.sites["v4only.example."] is SINGLE_STACK
        assert _walks() == walks

    def test_changed_name_re_resolved_after_sync(self, resolver, store):
        """A site adopting IPv6 is forgotten at the next sync and re-filed."""
        resolver.sync()
        assert resolver.resolve("v4only.example.") is SINGLE_STACK
        store.zone_for("example.").add(
            ResourceRecord("v4only.example.", RecordType.AAAA, IPv6Address(9))
        )
        resolver.sync()
        assert "v4only.example." not in resolver.sites
        _, res6 = resolver.resolve("v4only.example.")
        assert res6.addresses == (IPv6Address(9),)
        assert "v4only.example." in resolver.v6

    def test_cname_target_change_forgets_its_customers(self):
        store = _cdn_store("www.example.")
        resolver = Resolver(store=store)
        resolver.sync()
        resolver.resolve("www.example.")
        store.zone_for("example.").remove("edge.cdn.example.", RecordType.AAAA)
        resolver.sync()
        assert "www.example." not in resolver.sites
        assert resolver.resolve("www.example.") is SINGLE_STACK

    def test_account_books_hits_and_misses(self, resolver):
        before_hits = metrics.counter("dns.cache_hits").value
        before_misses = metrics.counter("dns.cache_misses").value
        resolver.account(n_queried=5, n_resolved=2)
        resolver.flush_counters()
        assert metrics.counter("dns.cache_misses").value == before_misses + 4
        assert metrics.counter("dns.cache_hits").value == before_hits + 6


class TestWholeNamePrefetch:
    """One authoritative walk answers A, AAAA, and CNAME for a name."""

    def test_second_family_answered_from_cache(self, resolver):
        walks = _walks()
        res4, res6 = resolver.resolve("dual.example.")
        assert res4 is not None and res6 is not None
        assert _walks() == walks + 1

    def test_sites_sharing_cdn_target_hit_cache_within_round(self):
        """Two CDN customers CNAME to one edge name: the second site walks
        only its own CNAME — the shared edge answers both its families."""
        resolver = Resolver(store=_cdn_store("site-a.example.", "site-b.example."))
        first = resolver.resolve("site-a.example.")
        assert first[0].final_name == "edge.cdn.example."
        walks = _walks()
        second = resolver.resolve("site-b.example.")
        assert second[0].final_name == "edge.cdn.example."
        assert second[1].addresses == (IPv6Address(7),)
        assert _walks() == walks + 1
        # Both sites share the edge's answer objects.
        assert second[0] is first[0]

    def test_aaaa_reuses_chain_resolved_for_a(self):
        resolver = Resolver(store=_cdn_store("www.example."))
        walks = _walks()
        res4, res6 = resolver.resolve("www.example.")
        assert res4.final_name == res6.final_name == "edge.cdn.example."
        # One walk for the CNAME, one for its target: both families.
        assert _walks() == walks + 2

    def test_cached_nxdomain_stays_nxdomain(self, resolver):
        assert resolver.resolve("ghost.example.") is SINGLE_STACK
        walks = _walks()
        assert resolver.resolve("ghost.example.") is SINGLE_STACK
        assert "ghost.example." in resolver.no_v4
        assert _walks() == walks


class TestQueryBoth:
    """A site's filing from its A and AAAA answers, and the tallies."""

    def test_dual_stack_site(self, resolver):
        res4, res6 = resolver.resolve("dual.example.")
        assert res4 is not None and res6 is not None
        assert "dual.example." not in resolver.no_v4
        assert "dual.example." in resolver.v6

    def test_v4_only_site(self, resolver):
        assert resolver.resolve("v4only.example.") is SINGLE_STACK
        assert "v4only.example." not in resolver.no_v4
        assert "v4only.example." not in resolver.v6

    def test_unknown_site(self, resolver):
        assert resolver.resolve("ghost.example.") is SINGLE_STACK
        assert "ghost.example." in resolver.no_v4
        assert "ghost.example." not in resolver.v6


class TestDns64:
    """AAAA synthesis for v4-only names (RFC 6147)."""

    @pytest.fixture()
    def resolver64(self, store) -> Resolver:
        return Resolver(store=store, dns64=True)

    def test_v4_only_name_gets_synthesized_aaaa(self, resolver64):
        _, res6 = resolver64.resolve("v4only.example.")
        assert res6.addresses == (synthesize_aaaa(IPv4Address(2)),)
        assert is_nat64_mapped(res6.addresses[0])

    def test_real_aaaa_is_never_overridden(self, resolver64):
        _, res6 = resolver64.resolve("dual.example.")
        assert res6.addresses == (IPv6Address(1),)
        assert not is_nat64_mapped(res6.addresses[0])

    def test_nxdomain_stays_nxdomain(self, resolver64):
        assert resolver64.resolve("ghost.example.") is SINGLE_STACK
        assert "ghost.example." not in resolver64.v6

    def test_synthesis_follows_cname_chains(self, resolver64, store):
        store.zone_for("example.").add(
            ResourceRecord("alias4.example.", RecordType.CNAME, "v4only.example.")
        )
        _, res6 = resolver64.resolve("alias4.example.")
        assert res6.final_name == "v4only.example."
        assert is_nat64_mapped(res6.addresses[0])

    def test_ipv4_answers_untouched(self, resolver64):
        res4, _ = resolver64.resolve("v4only.example.")
        assert res4.addresses == (IPv4Address(2),)

    def test_disabled_resolver_files_v4_only_as_single_stack(self, resolver):
        assert resolver.resolve("v4only.example.") is SINGLE_STACK
        assert "v4only.example." not in resolver.v6

    def test_synthesis_counter_increments(self, resolver64):
        before = metrics.counter("dns.dns64.synthesized").value
        resolver64.resolve("v4only.example.")
        resolver64.flush_counters()
        assert metrics.counter("dns.dns64.synthesized").value == before + 1

    def test_query_both_sees_both_families(self, resolver64):
        res4, res6 = resolver64.resolve("v4only.example.")
        assert res4.addresses == (IPv4Address(2),)
        assert is_nat64_mapped(res6.addresses[0])
        assert "v4only.example." in resolver64.v6
