"""RIR-style prefix allocation.

Each AS receives one IPv4 block and (if v6-enabled) one IPv6 block.  The
allocator hands out consecutive, non-overlapping blocks from
registry-style super-blocks, mimicking how RIRs carve allocations out of
their unallocated pools.  6to4 ASes derive their IPv6 prefix from their
IPv4 block per RFC 3056 instead of receiving a native allocation.
"""

from __future__ import annotations

from .addresses import AddressFamily, IPv4Address, Prefix
from ..errors import AllocationError

#: The registry pool we carve IPv4 allocations from (a fictional /4,
#: room for 4096 /16 allocations - enough for multi-thousand-AS worlds).
IPV4_POOL = Prefix.parse("16.0.0.0/4")
#: The registry pool for native IPv6 allocations (documentation-style).
IPV6_POOL = Prefix.parse("2001:db8::/32")
#: Default allocation sizes.
IPV4_ALLOC_LEN = 16
IPV6_ALLOC_LEN = 48


class PrefixAllocator:
    """Sequentially allocates non-overlapping blocks per family.

    The allocator remembers which AS owns which prefix, supporting reverse
    lookup (longest-prefix is unnecessary: allocations never nest).
    """

    def __init__(
        self,
        v4_pool: Prefix = IPV4_POOL,
        v6_pool: Prefix = IPV6_POOL,
        v4_alloc_len: int = IPV4_ALLOC_LEN,
        v6_alloc_len: int = IPV6_ALLOC_LEN,
    ) -> None:
        if v4_pool.family is not AddressFamily.IPV4:
            raise AllocationError("v4_pool must be an IPv4 prefix")
        if v6_pool.family is not AddressFamily.IPV6:
            raise AllocationError("v6_pool must be an IPv6 prefix")
        if v4_alloc_len < v4_pool.length or v6_alloc_len < v6_pool.length:
            raise AllocationError("allocation length shorter than pool")
        self._pools = {AddressFamily.IPV4: v4_pool, AddressFamily.IPV6: v6_pool}
        self._alloc_lens = {
            AddressFamily.IPV4: v4_alloc_len,
            AddressFamily.IPV6: v6_alloc_len,
        }
        self._next_index = {AddressFamily.IPV4: 0, AddressFamily.IPV6: 0}
        self._by_asn: dict[tuple[int, AddressFamily], Prefix] = {}
        self._by_prefix: dict[Prefix, int] = {}

    def allocate(self, asn: int, family: AddressFamily) -> Prefix:
        """Allocate the next free block of ``family`` to ``asn``.

        An AS can hold at most one block per family; repeated calls return
        the existing block.
        """
        key = (asn, family)
        existing = self._by_asn.get(key)
        if existing is not None:
            return existing
        pool = self._pools[family]
        alloc_len = self._alloc_lens[family]
        index = self._next_index[family]
        capacity = 1 << (alloc_len - pool.length)
        if index >= capacity:
            raise AllocationError(f"{family} pool exhausted after {index} blocks")
        step = 1 << (family.bits - alloc_len)
        prefix = Prefix(family, pool.network + index * step, alloc_len)
        self._next_index[family] = index + 1
        self._by_asn[key] = prefix
        self._by_prefix[prefix] = asn
        return prefix

    def register_6to4(self, asn: int) -> Prefix:
        """Derive and register a 6to4 prefix (RFC 3056) for ``asn``.

        The AS must already hold an IPv4 block; its 6to4 prefix is
        ``2002:V4ADDR::/48`` built from the first address of that block.
        """
        v4 = self._by_asn.get((asn, AddressFamily.IPV4))
        if v4 is None:
            raise AllocationError(f"AS{asn} has no IPv4 block to derive 6to4 from")
        key = (asn, AddressFamily.IPV6)
        existing = self._by_asn.get(key)
        if existing is not None:
            return existing
        v4_head = IPv4Address(v4.network)
        network = (0x2002 << 112) | (int(v4_head) << 80)
        prefix = Prefix(AddressFamily.IPV6, network, 48)
        self._by_asn[key] = prefix
        self._by_prefix[prefix] = asn
        return prefix

    def prefix_of(self, asn: int, family: AddressFamily) -> Prefix:
        """The block held by ``asn`` in ``family`` (KeyError-free API)."""
        prefix = self._by_asn.get((asn, family))
        if prefix is None:
            raise AllocationError(f"AS{asn} holds no {family} block")
        return prefix

    def has_prefix(self, asn: int, family: AddressFamily) -> bool:
        return (asn, family) in self._by_asn

    def owner_of_address(self, address) -> int:
        """The AS whose block contains ``address``.

        O(1): allocations are uniform-length blocks, so masking the address
        to the allocation length identifies the block directly; 6to4
        prefixes are resolved via their embedded IPv4 address (RFC 3056).
        """
        family = address.family
        candidate = Prefix.of(address, self._alloc_lens[family])
        asn = self._by_prefix.get(candidate)
        if asn is not None:
            return asn
        if family is AddressFamily.IPV6 and (int(address) >> 112) == 0x2002:
            embedded_v4 = IPv4Address((int(address) >> 80) & 0xFFFFFFFF)
            return self.owner_of_address(embedded_v4)
        # Fall back to a scan (covers custom, non-uniform registrations).
        for prefix, owner in self._by_prefix.items():
            if prefix.contains(address):
                return owner
        raise AllocationError(f"no allocation contains {address}")

    def allocations(self, family: AddressFamily) -> dict[int, Prefix]:
        """All allocations of one family, as ``{asn: prefix}``."""
        return {
            asn: prefix
            for (asn, fam), prefix in self._by_asn.items()
            if fam is family
        }
