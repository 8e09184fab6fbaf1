"""Prefix allocation: uniqueness, idempotence, reverse lookup, 6to4."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError
from repro.net.addresses import AddressFamily, IPv4Address, Prefix
from repro.net.allocation import PrefixAllocator
from repro.net.tunnels import is_6to4


@pytest.fixture()
def allocator() -> PrefixAllocator:
    return PrefixAllocator()


class TestAllocate:
    def test_allocations_are_disjoint(self, allocator):
        prefixes = [allocator.allocate(asn, AddressFamily.IPV4) for asn in range(1, 60)]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not a.contains(b) and not b.contains(a)

    def test_repeated_allocation_is_idempotent(self, allocator):
        first = allocator.allocate(5, AddressFamily.IPV6)
        second = allocator.allocate(5, AddressFamily.IPV6)
        assert first == second

    def test_families_are_independent(self, allocator):
        v4 = allocator.allocate(5, AddressFamily.IPV4)
        v6 = allocator.allocate(5, AddressFamily.IPV6)
        assert v4.family is AddressFamily.IPV4
        assert v6.family is AddressFamily.IPV6

    def test_pool_exhaustion_raises(self):
        tiny = PrefixAllocator(
            v4_pool=Prefix.parse("10.0.0.0/14"), v4_alloc_len=16
        )
        for asn in range(1, 5):
            tiny.allocate(asn, AddressFamily.IPV4)
        with pytest.raises(AllocationError):
            tiny.allocate(99, AddressFamily.IPV4)

    def test_bad_pool_configuration_rejected(self):
        with pytest.raises(AllocationError):
            PrefixAllocator(v4_pool=Prefix.parse("2001:db8::/32"))
        with pytest.raises(AllocationError):
            PrefixAllocator(v4_alloc_len=2)  # shorter than the /4 pool


class TestLookups:
    def test_prefix_of_roundtrip(self, allocator):
        prefix = allocator.allocate(7, AddressFamily.IPV4)
        assert allocator.prefix_of(7, AddressFamily.IPV4) == prefix

    def test_prefix_of_unknown_raises(self, allocator):
        with pytest.raises(AllocationError):
            allocator.prefix_of(7, AddressFamily.IPV6)

    def test_has_prefix(self, allocator):
        assert not allocator.has_prefix(3, AddressFamily.IPV4)
        allocator.allocate(3, AddressFamily.IPV4)
        assert allocator.has_prefix(3, AddressFamily.IPV4)

    def test_owner_of_address(self, allocator):
        prefix = allocator.allocate(11, AddressFamily.IPV4)
        assert allocator.owner_of_address(prefix.address(42)) == 11

    def test_owner_of_unallocated_address_raises(self, allocator):
        with pytest.raises(AllocationError):
            allocator.owner_of_address(IPv4Address.parse("203.0.113.1"))

    def test_allocations_view(self, allocator):
        allocator.allocate(1, AddressFamily.IPV4)
        allocator.allocate(2, AddressFamily.IPV4)
        allocator.allocate(2, AddressFamily.IPV6)
        v4 = allocator.allocations(AddressFamily.IPV4)
        assert set(v4) == {1, 2}


class TestSixToFour:
    def test_derived_from_v4_block(self, allocator):
        v4 = allocator.allocate(9, AddressFamily.IPV4)
        p6 = allocator.register_6to4(9)
        assert is_6to4(p6)
        assert p6.length == 48
        embedded = (p6.network >> 80) & 0xFFFFFFFF
        assert embedded == v4.network

    def test_requires_v4_block(self, allocator):
        with pytest.raises(AllocationError):
            allocator.register_6to4(12)

    def test_owner_of_6to4_address(self, allocator):
        allocator.allocate(9, AddressFamily.IPV4)
        p6 = allocator.register_6to4(9)
        assert allocator.owner_of_address(p6.address(1)) == 9

    def test_6to4_is_idempotent(self, allocator):
        allocator.allocate(9, AddressFamily.IPV4)
        assert allocator.register_6to4(9) == allocator.register_6to4(9)
