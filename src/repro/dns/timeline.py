"""One DNS timeline per world, read by every vantage through a cursor.

The paper's monitor re-resolves every site each round because live DNS
changes without notice.  The simulator knows exactly when a record
changes: every site has an A record from round 0, and its AAAA record
appears at adoption and comes and goes around World IPv6 Day.  So a
world's whole DNS history is built once, as immutable
:class:`~repro.dns.zone.NameEntry` versions, plus a per-round index of
the names whose entry changes there.

Every vantage reads that history through its own
:class:`TimelineCursor`.  A cursor speaks the zone-view protocol
(:class:`~repro.dns.zone.ZoneSource`): ``view().entry(name)`` returns
the name's entry at the cursor's round, and advancing the cursor pushes
the names that changed to its watchers, exactly as a mutating
:class:`~repro.dns.zone.ZoneStore` would.  Cursors hold references to
shared entries, never copies of records, so the six weekly shards and
the World IPv6 Day shards (a cursor pinned at the event round) all read
the same objects — and the answers derived from them are shared too.
"""

from __future__ import annotations

from typing import Iterable

from ..obs import metrics
from .records import RecordType, RRSet
from .zone import NameEntry

#: the same registry counter :mod:`repro.dns.zone` counts walks on.
_ZONE_WALKS = metrics.counter("dns.zone_walks")

#: one name's history: ``(first_round, record sets)`` per version, in
#: round order; the first version starts at round 0.
Schedule = tuple[str, list[tuple[int, dict[RecordType, RRSet]]]]


class DnsTimeline:
    """Every name's record sets, version by version, with a change index.

    Built once per world (``dns.zone_walks`` counts one walk per entry
    built); immutable afterwards except for two memos that only grow:
    negative entries for names outside the namespace, and ``answers``,
    the derived A/AAAA answers every cursor's readers share.
    """

    __slots__ = ("_initial", "_changes", "_missing", "answers")

    def __init__(self, schedules: Iterable[Schedule]) -> None:
        initial: dict[str, NameEntry] = {}
        #: round → (name, new entry) for every name that changes there.
        changes: dict[int, list[tuple[str, NameEntry]]] = {}
        n_entries = 0
        for name, versions in schedules:
            for first_round, rrsets in versions:
                entry = NameEntry(name=name, exists=True, rrsets=rrsets)
                n_entries += 1
                if first_round <= 0:
                    initial[name] = entry
                else:
                    changes.setdefault(first_round, []).append((name, entry))
        _ZONE_WALKS.inc(n_entries)
        self._initial = initial
        self._changes = changes
        self._missing: dict[str, NameEntry] = {}
        self.answers: dict = {}

    def missing(self, name: str) -> NameEntry:
        """The (memoised) NXDOMAIN entry of a name outside the namespace."""
        entry = self._missing.get(name)
        if entry is None:
            _ZONE_WALKS.inc()
            entry = self._missing[name] = NameEntry(
                name=name, exists=False, rrsets={}
            )
        return entry


class TimelineCursor:
    """One reader's position on a :class:`DnsTimeline`.

    The cursor is its own view: ``view()`` returns it, so a
    :class:`~repro.dns.resolver.Resolver` takes it wherever it takes a
    :class:`~repro.dns.zone.ZoneStore`.  :meth:`advance_to` moves it
    forward (never back) and pushes each changed name to the watchers.
    """

    __slots__ = ("_timeline", "_entries", "_watchers", "round_idx", "answers")

    def __init__(self, timeline: DnsTimeline, round_idx: int = 0) -> None:
        self._timeline = timeline
        self._entries = dict(timeline._initial)
        self._watchers: list[set[str]] = []
        self.round_idx = 0
        self.answers = timeline.answers
        self.advance_to(round_idx)

    def view(self) -> "TimelineCursor":
        return self

    def entry(self, name: str) -> NameEntry:
        entry = self._entries.get(name)
        if entry is None:
            entry = self._timeline.missing(name)
        return entry

    def watch(self) -> set[str]:
        """A set that collects every name the cursor's advances change."""
        names: set[str] = set()
        self._watchers.append(names)
        return names

    def advance_to(self, round_idx: int) -> None:
        """Move to ``round_idx``; a no-op unless it is ahead of the cursor."""
        entries = self._entries
        changes = self._timeline._changes
        watchers = self._watchers
        for step in range(self.round_idx + 1, round_idx + 1):
            for name, entry in changes.get(step, ()):
                entries[name] = entry
                for names in watchers:
                    names.add(name)
        if round_idx > self.round_idx:
            self.round_idx = round_idx
