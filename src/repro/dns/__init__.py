"""DNS substrate: records, authoritative zones, the per-vantage resolver."""

from .records import RecordType, ResourceRecord, RRSet
from .zone import Zone, ZoneStore
from .resolver import Resolver, ResolutionResult

__all__ = [
    "RecordType",
    "ResourceRecord",
    "RRSet",
    "Zone",
    "ZoneStore",
    "Resolver",
    "ResolutionResult",
]
