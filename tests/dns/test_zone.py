"""Authoritative zones."""

from __future__ import annotations

import pytest

from repro.dns.records import RecordType, ResourceRecord
from repro.dns.zone import Zone, ZoneStore
from repro.errors import DnsError, NxDomain
from repro.net.addresses import IPv4Address, IPv6Address


def a_record(name: str, value: int = 1) -> ResourceRecord:
    return ResourceRecord(name, RecordType.A, IPv4Address(value))


class TestZone:
    def test_lookup_existing(self):
        zone = Zone("example.")
        zone.add(a_record("www.example."))
        rrset = zone.lookup("www.example.", RecordType.A)
        assert len(rrset) == 1

    def test_nxdomain_for_unknown_name(self):
        zone = Zone("example.")
        with pytest.raises(NxDomain):
            zone.lookup("nope.example.", RecordType.A)

    def test_empty_set_for_missing_type(self):
        zone = Zone("example.")
        zone.add(a_record("www.example."))
        rrset = zone.lookup("www.example.", RecordType.AAAA)
        assert not rrset

    def test_duplicate_record_rejected(self):
        zone = Zone("example.")
        zone.add(a_record("www.example."))
        with pytest.raises(DnsError):
            zone.add(a_record("www.example."))

    def test_multiple_distinct_records_allowed(self):
        zone = Zone("example.")
        zone.add(a_record("www.example.", 1))
        zone.add(a_record("www.example.", 2))
        assert len(zone.lookup("www.example.", RecordType.A)) == 2

    def test_cname_exclusivity(self):
        zone = Zone("example.")
        zone.add(ResourceRecord("www.example.", RecordType.CNAME, "cdn.example."))
        with pytest.raises(DnsError):
            zone.add(a_record("www.example."))

    def test_no_second_cname(self):
        zone = Zone("example.")
        zone.add(ResourceRecord("www.example.", RecordType.CNAME, "cdn.example."))
        with pytest.raises(DnsError):
            zone.add(ResourceRecord("www.example.", RecordType.CNAME, "x.example."))

    def test_cname_cannot_join_existing_records(self):
        zone = Zone("example.")
        zone.add(a_record("www.example."))
        with pytest.raises(DnsError):
            zone.add(ResourceRecord("www.example.", RecordType.CNAME, "x.example."))

    def test_remove(self):
        zone = Zone("example.")
        zone.add(a_record("www.example."))
        assert zone.remove("www.example.", RecordType.A) == 1
        with pytest.raises(NxDomain):
            zone.lookup("www.example.", RecordType.A)

    def test_remove_keeps_name_if_other_types_remain(self):
        zone = Zone("example.")
        zone.add(a_record("www.example."))
        zone.add(
            ResourceRecord("www.example.", RecordType.AAAA, IPv6Address(1))
        )
        zone.remove("www.example.", RecordType.AAAA)
        # Name still exists: A lookup succeeds, AAAA gives empty set.
        assert zone.lookup("www.example.", RecordType.A)
        assert not zone.lookup("www.example.", RecordType.AAAA)

    def test_names_and_len(self):
        zone = Zone("example.")
        zone.add(a_record("a.example."))
        zone.add(a_record("b.example."))
        assert zone.names() == {"a.example.", "b.example."}
        assert len(zone) == 2


class TestZoneStore:
    def test_zone_for_creates_once(self):
        store = ZoneStore()
        assert store.zone_for("example.") is store.zone_for("example.")

    def test_authoritative_lookup_across_zones(self):
        store = ZoneStore()
        store.zone_for("example.").add(a_record("www.example."))
        store.zone_for("cdn.").add(a_record("edge.cdn.", 9))
        assert store.view().entry("edge.cdn.").rrset(RecordType.A)

    def test_authoritative_nxdomain(self):
        store = ZoneStore()
        store.zone_for("example.").add(a_record("www.example."))
        assert not store.view().entry("nope.example.").exists

    def test_missing_type_returns_empty(self):
        store = ZoneStore()
        store.zone_for("example.").add(a_record("www.example."))
        assert store.view().entry("www.example.").rrset(RecordType.AAAA) is None

    def test_len(self):
        store = ZoneStore()
        store.zone_for("example.").add(a_record("www.example."))
        assert len(store) == 1


class TestZoneView:
    """Per-name memoisation with push-based, per-name invalidation."""

    def test_view_object_is_stable(self):
        store = ZoneStore()
        store.zone_for("example.").add(a_record("www.example."))
        assert store.view() is store.view()

    def test_entry_memoised_across_lookups(self):
        store = ZoneStore()
        store.zone_for("example.").add(a_record("www.example."))
        view = store.view()
        assert view.entry("www.example.") is view.entry("www.example.")

    def test_entry_collects_all_types_in_one_walk(self):
        store = ZoneStore()
        zone = store.zone_for("example.")
        zone.add(a_record("www.example."))
        zone.add(ResourceRecord("www.example.", RecordType.AAAA, IPv6Address(1)))
        entry = store.view().entry("www.example.")
        assert entry.exists
        assert set(entry.rrsets) == {RecordType.A, RecordType.AAAA}

    def test_mutation_evicts_only_that_name(self):
        store = ZoneStore()
        zone = store.zone_for("example.")
        zone.add(a_record("www.example."))
        zone.add(a_record("other.example.", 2))
        view = store.view()
        stale = view.entry("www.example.")
        other = view.entry("other.example.")
        zone.add(ResourceRecord("www.example.", RecordType.AAAA, IPv6Address(1)))
        # Same view object; only the mutated name was recomputed.
        assert store.view() is view
        fresh = view.entry("www.example.")
        assert fresh is not stale
        assert RecordType.AAAA in fresh.rrsets
        assert view.entry("other.example.") is other

    def test_negative_entry_evicted_on_add(self):
        store = ZoneStore()
        zone = store.zone_for("example.")
        zone.add(a_record("www.example."))
        view = store.view()
        assert not view.entry("new.example.").exists
        zone.add(a_record("new.example.", 3))
        assert view.entry("new.example.").exists

    def test_remove_evicts_name(self):
        store = ZoneStore()
        zone = store.zone_for("example.")
        zone.add(a_record("www.example."))
        view = store.view()
        assert view.entry("www.example.").exists
        zone.remove("www.example.", RecordType.A)
        assert not view.entry("www.example.").exists
