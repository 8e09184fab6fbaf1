"""Batched DNS planning: per-site answer pairs kept current by invalidation.

Within one monitoring round the DNS a vantage reads is fixed (its zone
source advances at round start) and every record's TTL is far shorter
than the gap between rounds, so the resolver's *answers* are pure
functions of (name, current entries) — only its hit/miss accounting
depends on query timestamps.  :class:`PairResolver` therefore resolves a
site once, answering both families from one CNAME chase, and keeps the
result until the view pushes an invalidation for a name on its chain.
A resolved site is filed as dual-stack (its answer pair) or not, so the
round plan decides a site's DNS fate with one dict lookup.

The answers themselves live in the view's shared ``answers`` memo, keyed
by the query name and the identity of the entries its chase read.  Every
vantage reading one world's DNS timeline therefore shares one answer
object per (name, version); DNS64 is a per-resolver flag that maps the
shared A answer to a synthesized AAAA.
"""

from __future__ import annotations

from ..dns.records import RecordType
from ..dns.resolver import (
    MAX_CNAME_DEPTH,
    _CACHE_HITS,
    _CACHE_MISSES,
    _DNS64_SYNTHESIZED,
    ResolutionResult,
    Resolver,
)
from ..errors import DnsError
from ..net.nat64 import synthesize_aaaa

#: the sites-row of a resolved site that is not dual-stack.
SINGLE_STACK = ()


class PairResolver:
    """Per-site A+AAAA answers for one resolver, current as of its view.

    Answers are byte-identical to what the scalar resolver produces for
    the same DNS state: the chase below follows the same CNAME hops
    (zone invariants guarantee a name holds either a CNAME or terminal
    records, never both, so both families share one chain) and builds
    :class:`ResolutionResult` rows from the same record sets.

    Cache accounting: a site answered from the memo counts as both
    families answered from cache (+2 hits), a site resolved this round
    as two authoritative misses (+2 misses).  The round plan reports
    both through :meth:`account`; :meth:`flush_counters` pushes the
    totals to the registry once per round.
    """

    __slots__ = (
        "_view",
        "_answers",
        "_dirty",
        "_dependents",
        "_dns64",
        "sites",
        "no_v4",
        "v6",
        "pending_hits",
        "pending_misses",
        "pending_dns64",
    )

    def __init__(self, resolver: Resolver) -> None:
        view = resolver.store.view()
        self._view = view
        self._answers: dict = view.answers
        #: names the view invalidated since the last :meth:`sync`.
        self._dirty = view.watch()
        #: CNAME target → query names whose chase passed through it.
        self._dependents: dict[str, set[str]] = {}
        self._dns64 = resolver.dns64
        #: name → (v4 answer, v6 answer) for a dual-stack site, or
        #: :data:`SINGLE_STACK`; absent until resolved and once invalidated.
        self.sites: dict[str, tuple] = {}
        #: resolved names without an A answer / with a AAAA answer (the
        #: top-list tallies are intersections with these).
        self.no_v4: set[str] = set()
        self.v6: set[str] = set()
        self.pending_hits = 0
        self.pending_misses = 0
        self.pending_dns64 = 0

    def sync(self) -> None:
        """Forget every site whose answers the view invalidated."""
        dirty = self._dirty
        if not dirty:
            return
        dependents = self._dependents
        for name in dirty:
            self._forget(name)
            for query_name in dependents.pop(name, ()):
                self._forget(query_name)
        dirty.clear()

    def _forget(self, name: str) -> None:
        if self.sites.pop(name, None) is not None:
            self.no_v4.discard(name)
            self.v6.discard(name)

    def resolve(self, name: str) -> tuple:
        """Resolve ``name`` against the current view and file it."""
        res4, res6 = self._pair(name)
        if res4 is None:
            self.no_v4.add(name)
        if res6 is not None:
            self.v6.add(name)
        row = SINGLE_STACK
        if res4 is not None and res6 is not None:
            row = (res4, res6)
        self.sites[name] = row
        return row

    def account(self, n_queried: int, n_resolved: int) -> None:
        """Book one round: ``n_queried`` sites, ``n_resolved`` of them anew."""
        self.pending_misses += 2 * n_resolved
        self.pending_hits += 2 * (n_queried - n_resolved)

    def _pair(
        self, name: str
    ) -> tuple[ResolutionResult | None, ResolutionResult | None]:
        """Both families' answers: one CNAME chase, shared answer objects."""
        view_entry = self._view.entry
        a_type, aaaa_type = RecordType.A, RecordType.AAAA
        current = name.lower()
        if current != name:
            self._dependents.setdefault(current, set()).add(name)
        key: list = [name]
        for _ in range(MAX_CNAME_DEPTH):
            entry = view_entry(current)
            key.append(entry)
            if not entry.exists:
                break
            rrsets = entry.rrsets
            if a_type in rrsets or aaaa_type in rrsets:
                break
            cname_set = rrsets.get(RecordType.CNAME)
            if cname_set is None:
                break
            current = str(cname_set.records[0].value)
            self._dependents.setdefault(current, set()).add(name)
        else:
            raise DnsError(f"CNAME chain too deep resolving {name}")
        key = tuple(key)
        answers = self._answers.get(key)
        if answers is None:
            # [v4 answer, v6 answer, synthesized v6 (filled on demand)]
            answers = self._answers[key] = [
                _result(name, entry, a_type),
                _result(name, entry, aaaa_type),
                None,
            ]
        res4, res6 = answers[0], answers[1]
        if res6 is None and res4 is not None and self._dns64:
            # DNS64 (RFC 6147): the name is v4-only, so the AAAA answer
            # is synthesized from the A record — same mapping as the
            # scalar resolver's synthesis point.
            self.pending_dns64 += 1
            res6 = answers[2]
            if res6 is None:
                res6 = answers[2] = ResolutionResult(
                    query_name=name,
                    final_name=res4.final_name,
                    rtype=aaaa_type,
                    addresses=tuple(synthesize_aaaa(a) for a in res4.addresses),
                    from_cache=False,
                )
        return res4, res6

    def flush_counters(self) -> None:
        """Flush the accumulated hit/miss totals to the obs registry."""
        if self.pending_hits:
            _CACHE_HITS.inc(self.pending_hits)
            self.pending_hits = 0
        if self.pending_misses:
            _CACHE_MISSES.inc(self.pending_misses)
            self.pending_misses = 0
        if self.pending_dns64:
            _DNS64_SYNTHESIZED.inc(self.pending_dns64)
            self.pending_dns64 = 0


def _result(name: str, entry, rtype: RecordType) -> ResolutionResult | None:
    """``name``'s answer of type ``rtype``, its chase having ended at ``entry``."""
    rrset = entry.rrsets.get(rtype)
    if rrset is None:
        return None
    return ResolutionResult(
        query_name=name,
        final_name=entry.name,
        rtype=rtype,
        addresses=rrset.address_tuple,
        from_cache=False,
    )
