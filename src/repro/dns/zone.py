"""Authoritative DNS zones.

A :class:`ZoneStore` is the world's authoritative namespace: every site's
A/AAAA (and CNAME, for CDN customers) records live here.  The resolver
queries the store; there is no delegation tree because the paper's tool
only ever issues direct A/AAAA lookups for site names.

Lookups go through a :class:`ZoneView`: a per-name index over the store
that collects *all* of a name's record sets in one pass ("one zone walk")
and memoises the result.  Invalidation is per-name and push-based: a zone
mutation evicts only that name's entry and pushes the name to every
watcher (:meth:`ZoneView.watch`), so a round that publishes AAAA records
for a handful of adopting sites re-walks those names alone — the rest of
the namespace stays warm across rounds.

A simulated world does not mutate zones at all: it reads one immutable
:class:`~repro.dns.timeline.DnsTimeline` through per-vantage cursors that
speak the same view protocol (:class:`ZoneSource`).  Hand-built
:class:`ZoneStore` s remain the tool for tests that mutate DNS directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..errors import DnsError, NxDomain
from ..obs import metrics
from .records import RecordType, ResourceRecord, RRSet

#: per-name authoritative walks (the deterministic DNS work counter the
#: perf-regression gate tracks; module-cached, ``obs`` resets in place).
_ZONE_WALKS = metrics.counter("dns.zone_walks")


@dataclass
class Zone:
    """One authoritative zone: a bag of records grouped by (name, type)."""

    origin: str
    _records: dict[tuple[str, RecordType], list[ResourceRecord]] = field(
        default_factory=dict
    )
    #: record types present per name (O(1) NXDOMAIN and CNAME-exclusivity
    #: checks; replaces a full-zone scan per add).
    _types_by_name: dict[str, set[RecordType]] = field(default_factory=dict)
    #: bumped on every successful mutation.
    version: int = 0
    #: owning store, set by :meth:`ZoneStore.zone_for`; mutations push a
    #: per-name eviction to the store's view instead of the view polling
    #: a store-wide version on every lookup.
    _store: "ZoneStore | None" = field(default=None, repr=False, compare=False)

    def add(self, record: ResourceRecord) -> None:
        key = (record.name, record.rtype)
        existing = self._records.get(key)
        if record.rtype is RecordType.CNAME and existing:
            raise DnsError(f"{record.name} already has a CNAME")
        if existing and record in existing:
            raise DnsError(f"duplicate record {record}")
        other_types = self._types_by_name.get(record.name, ())
        if record.rtype is RecordType.CNAME and any(
            rt is not RecordType.CNAME for rt in other_types
        ):
            raise DnsError(f"{record.name}: CNAME cannot coexist with other records")
        if record.rtype is not RecordType.CNAME and (
            RecordType.CNAME in other_types
        ):
            raise DnsError(f"{record.name}: other records cannot coexist with CNAME")
        self._records.setdefault(key, []).append(record)
        self._types_by_name.setdefault(record.name, set()).add(record.rtype)
        self.version += 1
        if self._store is not None:
            self._store._invalidate(record.name)

    def remove(self, name: str, rtype: RecordType) -> int:
        """Delete all records of (name, type); returns how many were removed."""
        removed = self._records.pop((name, rtype), [])
        if removed:
            types = self._types_by_name.get(name)
            if types is not None:
                types.discard(rtype)
                if not types:
                    del self._types_by_name[name]
            self.version += 1
            if self._store is not None:
                self._store._invalidate(name)
        return len(removed)

    def lookup(self, name: str, rtype: RecordType) -> RRSet:
        """The RRSet for (name, type); empty set if the name exists but the
        type does not; raises :class:`NxDomain` if the name is unknown."""
        records = self._records.get((name, rtype))
        if records:
            return RRSet(name=name, rtype=rtype, records=tuple(records))
        if name in self._types_by_name:
            return RRSet(name=name, rtype=rtype, records=())
        raise NxDomain(f"{name} does not exist in zone {self.origin}")

    def knows(self, name: str) -> bool:
        """Whether the zone holds any record for ``name``."""
        return name in self._types_by_name

    def rrsets_of(self, name: str) -> dict[RecordType, RRSet]:
        """All non-empty record sets of ``name`` (empty dict if unknown)."""
        out: dict[RecordType, RRSet] = {}
        for rtype in self._types_by_name.get(name, ()):
            records = self._records.get((name, rtype))
            if records:
                out[rtype] = RRSet(name=name, rtype=rtype, records=tuple(records))
        return out

    def names(self) -> set[str]:
        return set(self._types_by_name)

    def __len__(self) -> int:
        return sum(len(records) for records in self._records.values())


@dataclass(frozen=True, eq=False)
class NameEntry:
    """Everything the store knows about one name, gathered in one walk.

    Entries are immutable and replaced (never mutated) when a name
    changes, so equality and hashing are by identity: the same entry
    object proves the same record sets, and derived caches (the batch
    plane's A/AAAA answers) key on it.
    """

    name: str
    exists: bool
    #: non-empty record sets by type (A / AAAA / CNAME).
    rrsets: dict[RecordType, RRSet]

    def rrset(self, rtype: RecordType) -> RRSet | None:
        return self.rrsets.get(rtype)


class ZoneView:
    """A memoised per-name index over a :class:`ZoneStore`.

    One :meth:`entry` computation walks every zone for the name once and
    captures *all* its record sets — so a resolver can answer the A, AAAA,
    and CNAME questions of one site from a single authoritative walk.
    Entries persist until the specific name mutates: zones push per-name
    evictions through :meth:`ZoneStore._invalidate`, so publishing AAAA
    records for adopting sites leaves every other cached name warm.
    """

    def __init__(self, store: "ZoneStore") -> None:
        self._store = store
        self._entries: dict[str, NameEntry] = {}
        self._watchers: list[set[str]] = []
        #: answers derived from this view's entries, shared by every
        #: reader (see :class:`~repro.dns.resolver.Resolver`).
        self.answers: dict = {}

    def watch(self) -> set[str]:
        """A set that collects every name invalidated from now on.

        The watcher owns the set and clears it once it has caught up.
        """
        names: set[str] = set()
        self._watchers.append(names)
        return names

    def _invalidate(self, name: str) -> None:
        self._entries.pop(name, None)
        for names in self._watchers:
            names.add(name)

    def entry(self, name: str) -> NameEntry:
        cached = self._entries.get(name)
        if cached is not None:
            return cached
        _ZONE_WALKS.inc()
        exists = False
        rrsets: dict[RecordType, RRSet] = {}
        for zone in self._store.zones.values():
            if not zone.knows(name):
                continue
            exists = True
            for rtype, rrset in zone.rrsets_of(name).items():
                # First zone holding a non-empty set wins (store order),
                # matching the legacy multi-zone walk.
                rrsets.setdefault(rtype, rrset)
        entry = NameEntry(name=name, exists=exists, rrsets=rrsets)
        self._entries[name] = entry
        return entry


class ZoneSource(Protocol):
    """What a resolver reads DNS from: a :class:`ZoneStore`, or a world's
    :class:`~repro.dns.timeline.TimelineCursor`.

    ``view()`` returns an object with ``entry(name)`` (the name's
    :class:`NameEntry`), ``watch()`` (a set that collects invalidated
    names) and ``answers`` (a memo of derived answers, keyed by entries).
    """

    def view(self): ...


@dataclass
class ZoneStore:
    """The union of all authoritative zones, queried by exact name."""

    zones: dict[str, Zone] = field(default_factory=dict)
    _view: ZoneView | None = field(default=None, repr=False, compare=False)

    def zone_for(self, origin: str) -> Zone:
        """Get or create the zone with the given origin."""
        zone = self.zones.get(origin)
        if zone is None:
            zone = Zone(origin=origin, _store=self)
            self.zones[origin] = zone
        return zone

    @property
    def version(self) -> int:
        """Monotone store version (moves on any zone mutation or creation)."""
        return len(self.zones) + sum(z.version for z in self.zones.values())

    def _invalidate(self, name: str) -> None:
        """Evict one name from the live view (called by mutating zones)."""
        view = self._view
        if view is not None:
            view._invalidate(name)

    def view(self) -> ZoneView:
        """The store's per-name view (created once, evicted name-by-name).

        Zones placed in :attr:`zones` without :meth:`zone_for` are adopted
        here so their later mutations push evictions too.
        """
        view = self._view
        if view is None:
            for zone in self.zones.values():
                zone._store = self
            view = self._view = ZoneView(self)
        return view

    def __len__(self) -> int:
        return sum(len(zone) for zone in self.zones.values())
