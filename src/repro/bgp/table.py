"""Per-vantage-point BGP routing tables.

The paper correlated measurements with AS paths by reading "the (core)
routing table of a router close to the machine running the monitoring
software".  :class:`RoutingTable` is that artifact: a longest-prefix-match
table mapping announced prefixes to AS paths, one per (vantage, family).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RoutingError
from ..net.addresses import Address, AddressFamily, Prefix
from ..topology.dualstack import DualStackTopology
from .routing import PathOracle


@dataclass(frozen=True)
class RouteEntry:
    """One RIB entry: a prefix, its origin AS, and the selected AS path."""

    prefix: Prefix
    origin_asn: int
    as_path: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.as_path:
            raise RoutingError("RouteEntry needs a non-empty AS path")
        if self.as_path[-1] != self.origin_asn:
            raise RoutingError(
                f"AS path must end at origin AS{self.origin_asn}, "
                f"got {self.as_path}"
            )


@dataclass
class RoutingTable:
    """A longest-prefix-match RIB for one (vantage AS, family)."""

    vantage_asn: int
    family: AddressFamily
    entries: dict[Prefix, RouteEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_length: dict[int, dict[int, RouteEntry]] = {}
        for entry in self.entries.values():
            self._index(entry)

    def _index(self, entry: RouteEntry) -> None:
        self._by_length.setdefault(entry.prefix.length, {})[
            entry.prefix.network
        ] = entry

    def insert(self, entry: RouteEntry) -> None:
        if entry.prefix.family is not self.family:
            raise RoutingError(
                f"cannot insert {entry.prefix.family} prefix into "
                f"{self.family} table"
            )
        self.entries[entry.prefix] = entry
        self._index(entry)

    def lookup(self, address: Address) -> RouteEntry | None:
        """Longest-prefix-match lookup; None when no route covers it."""
        if address.family is not self.family:
            raise RoutingError(
                f"cannot look up {address.family} address in {self.family} table"
            )
        value = int(address)
        bits = self.family.bits
        for length in sorted(self._by_length, reverse=True):
            network = value & (((1 << bits) - 1) ^ ((1 << (bits - length)) - 1))
            entry = self._by_length[length].get(network)
            if entry is not None:
                return entry
        return None

    def __len__(self) -> int:
        return len(self.entries)


def build_routing_table(
    topo: DualStackTopology,
    oracle: PathOracle,
    vantage_asn: int,
    family: AddressFamily,
    destinations: list[int] | None = None,
) -> RoutingTable:
    """Build the vantage router's RIB for ``family``.

    Installs one entry per destination AS holding a prefix in ``family``
    and reachable from the vantage point.  ``destinations`` limits the
    build to a subset of origin ASes (the monitor only needs routes to
    ASes that host monitored sites).
    """
    table = RoutingTable(vantage_asn=vantage_asn, family=family)
    if destinations is None:
        destinations = topo.asn_list
    for dest in destinations:
        if not topo.allocator.has_prefix(dest, family):
            continue
        path = oracle.as_path(vantage_asn, dest, family)
        if path is None:
            continue
        prefix = topo.allocator.prefix_of(dest, family)
        table.insert(RouteEntry(prefix=prefix, origin_asn=dest, as_path=path))
    return table
