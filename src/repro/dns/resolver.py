"""A caching recursive resolver.

Each vantage point runs one resolver instance.  It follows CNAME chains
(bounded depth), caches positive and negative answers by TTL against the
simulation clock, and reports whether an answer came from cache — which
the tests use to verify cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import DnsError, DnsTimeout, NoRecord, NxDomain
from ..net.addresses import Address, AddressFamily
from ..net.nat64 import synthesize_aaaa
from ..obs import metrics
from .records import RecordType, RRSet
from .zone import ZoneSource

#: Maximum CNAME chain length before we declare a loop.
MAX_CNAME_DEPTH = 8
#: TTL used to cache negative answers (NXDOMAIN / no such type).
NEGATIVE_TTL = 900.0

#: process-wide cache counters (per-resolver ``hits``/``misses`` remain).
_CACHE_HITS = metrics.counter("dns.cache_hits")
_CACHE_MISSES = metrics.counter("dns.cache_misses")
#: DNS64 synthesis counters (RFC 6147): AAAA answers fabricated from A
#: records, and AAAA queries that stayed negative because the name had
#: no A record to map either.
_DNS64_SYNTHESIZED = metrics.counter("dns.dns64.synthesized")
_DNS64_NO_MAPPING = metrics.counter("dns.dns64.no_mapping")


@dataclass(frozen=True, slots=True)
class ResolutionResult:
    """The outcome of one query: final name, addresses, cache provenance."""

    query_name: str
    final_name: str
    rtype: RecordType
    addresses: tuple[Address, ...]
    from_cache: bool

    def __bool__(self) -> bool:
        return bool(self.addresses)


#: record types the prefetch populates together from one zone walk.
_PREFETCH_TYPES = (RecordType.A, RecordType.AAAA, RecordType.CNAME)

#: family → address record type, as a dict (one identity-hash lookup on
#: the per-query path instead of a classmethod call).
_RTYPE_FOR = {
    AddressFamily.IPV4: RecordType.A,
    AddressFamily.IPV6: RecordType.AAAA,
}


@dataclass(slots=True)
class _CacheEntry:
    rrset: RRSet | None  # None encodes a negative answer
    expires_at: float
    #: True when the *name* is unknown (NXDOMAIN), as opposed to the name
    #: existing without this record type (NoRecord).  Without the flag a
    #: cached-NXDOMAIN name would misreport as NoRecord on later queries.
    nxdomain: bool = False


@dataclass
class Resolver:
    """Caching resolver over a zone source: a world's DNS timeline cursor
    or a hand-built :class:`~repro.dns.zone.ZoneStore`."""

    store: ZoneSource
    _cache: dict[tuple[str, RecordType], _CacheEntry] = field(default_factory=dict)
    #: statistics: (hits, misses) for observability and tests.
    hits: int = 0
    misses: int = 0
    #: optional fault hook ``(name, family, now, attempt) -> seconds or
    #: None``; a non-None return makes the lookup attempt raise
    #: :class:`DnsTimeout` (carrying that cost) before touching the cache —
    #: a timeout is transient, not an answer.
    fault_check: Callable[[str, AddressFamily, float, int], float | None] | None = (
        None
    )
    #: DNS64 mode (RFC 6147): when a AAAA query finds a name with no AAAA
    #: record, synthesize one from the name's A record by embedding the
    #: IPv4 address in the NAT64 well-known prefix.  NXDOMAIN is never
    #: synthesized (no A record to map), matching the RFC.
    dns64: bool = False

    def _prefetch(self, name: str, now: float) -> None:
        """One authoritative walk caches the whole name: A, AAAA and CNAME.

        The monitor always asks both families of every site, so fetching
        the name once and answering the second family (and any CNAME hop)
        from cache halves the authoritative traffic.
        """
        entry = self.store.view().entry(name)
        cache = self._cache
        if not entry.exists:
            expires = now + NEGATIVE_TTL
            for rtype in _PREFETCH_TYPES:
                cache[(name, rtype)] = _CacheEntry(
                    rrset=None, expires_at=expires, nxdomain=True
                )
            return
        rrsets = entry.rrsets
        for rtype in _PREFETCH_TYPES:
            rrset = rrsets.get(rtype)
            # view entries only hold non-empty sets, so None is the only
            # negative shape here.
            ttl = NEGATIVE_TTL if rrset is None else rrset.ttl
            cache[(name, rtype)] = _CacheEntry(rrset=rrset, expires_at=now + ttl)

    def _lookup_one(
        self, name: str, rtype: RecordType, now: float
    ) -> tuple[RRSet | None, bool, bool]:
        """One non-recursive lookup step, via cache then authority.

        Returns ``(rrset, was_cached, nxdomain)``; raising is left to the
        caller so the monitor's negative-heavy hot path (every v4-only
        site answers "no AAAA" every round) can stay exception-free.
        """
        entry = self._cache.get((name, rtype))
        if entry is not None and entry.expires_at > now:
            self.hits += 1
            _CACHE_HITS.inc()
            return entry.rrset, True, entry.nxdomain
        self.misses += 1
        _CACHE_MISSES.inc()
        self._prefetch(name, now)
        entry = self._cache[(name, rtype)]
        return entry.rrset, False, entry.nxdomain

    def resolve(
        self,
        name: str,
        family: AddressFamily,
        now: float = 0.0,
        attempt: int = 0,
    ) -> ResolutionResult:
        """Resolve ``name`` to addresses of ``family`` at time ``now``.

        Raises :class:`NxDomain` for unknown names and :class:`NoRecord`
        when the name exists but has no address of the family (a site with
        an A record but no AAAA raises NoRecord for IPv6 — that is exactly
        the "not IPv6 accessible" signal of the paper's first phase).
        With a ``fault_check`` installed, an attempt may instead raise
        :class:`DnsTimeout`; ``attempt`` distinguishes retries so they are
        fresh draws from the fault plan.
        """
        result = self.resolve_quiet(name, family, now, attempt)
        if result is None:
            rtype = _RTYPE_FOR[family]
            current = name.lower()
            for _ in range(MAX_CNAME_DEPTH):
                entry = self._cache.get((current, rtype))
                if entry is None or entry.nxdomain:
                    raise NxDomain(current + " does not exist in any zone")
                if entry.rrset is not None:  # pragma: no cover - defensive
                    break
                cname = self._cache.get((current, RecordType.CNAME))
                if cname is None or cname.nxdomain:
                    raise NxDomain(current + " does not exist in any zone")
                if cname.rrset is None:
                    raise NoRecord(current + " has no " + rtype.value + " record")
                current = str(cname.rrset.records[0].value)
            raise NoRecord(current + " has no " + rtype.value + " record")
        return result

    def resolve_quiet(
        self,
        name: str,
        family: AddressFamily,
        now: float = 0.0,
        attempt: int = 0,
    ) -> ResolutionResult | None:
        """:meth:`resolve`, with negative answers returned as ``None``.

        The monitor's per-site hot path calls this: most site-rounds
        answer "no AAAA", and raising :class:`NoRecord` ~150k times per
        campaign just to catch it one frame up is measurable overhead.
        An injected :class:`DnsTimeout` still propagates (it is a
        transient fault, not an answer).
        """
        rtype = _RTYPE_FOR[family]
        if self.fault_check is not None:
            timeout = self.fault_check(name, family, now, attempt)
            if timeout is not None:
                raise DnsTimeout(
                    f"lookup of {name} {rtype.value} timed out", seconds=timeout
                )
        current = name.lower()
        from_cache = True
        cache = self._cache
        cname_type = RecordType.CNAME
        for _ in range(MAX_CNAME_DEPTH):
            # _lookup_one, inlined twice: this loop runs ~450k times per
            # full-scale campaign and the call overhead alone is visible
            # in the round profile.
            entry = cache.get((current, rtype))
            if entry is not None and entry.expires_at > now:
                self.hits += 1
                _CACHE_HITS.inc()
            else:
                self.misses += 1
                _CACHE_MISSES.inc()
                self._prefetch(current, now)
                entry = cache[(current, rtype)]
                from_cache = False
            if entry.nxdomain:
                return None
            rrset = entry.rrset
            if rrset is not None:
                return ResolutionResult(
                    query_name=name,
                    final_name=current,
                    rtype=rtype,
                    addresses=rrset.address_tuple,
                    from_cache=from_cache,
                )
            # No address record: try a CNAME hop.
            entry = cache.get((current, cname_type))
            if entry is not None and entry.expires_at > now:
                self.hits += 1
                _CACHE_HITS.inc()
            else:
                self.misses += 1
                _CACHE_MISSES.inc()
                self._prefetch(current, now)
                entry = cache[(current, cname_type)]
                from_cache = False
            if entry.nxdomain:
                return None
            cname_set = entry.rrset
            if cname_set is None:
                # The name exists but has neither an address of this
                # family nor a CNAME — the DNS64 synthesis point: a AAAA
                # query against a v4-only name.
                if self.dns64 and family is AddressFamily.IPV6:
                    return self._dns64_synthesize(name, current, now, from_cache)
                return None
            current = str(cname_set.records[0].value)
        raise DnsError(f"CNAME chain too deep resolving {name}")

    def _dns64_synthesize(
        self, query_name: str, final_name: str, now: float, from_cache: bool
    ) -> ResolutionResult | None:
        """Fabricate a AAAA answer from ``final_name``'s A record.

        Called only when ``final_name`` exists without a AAAA record
        (RFC 6147 §5.1.6: synthesis never overrides a real AAAA, and
        NXDOMAIN stays NXDOMAIN).  Returns ``None`` when there is no A
        record to map either.
        """
        rrset, was_cached, nxdomain = self._lookup_one(
            final_name, RecordType.A, now
        )
        if nxdomain or rrset is None:
            _DNS64_NO_MAPPING.inc()
            return None
        _DNS64_SYNTHESIZED.inc()
        return ResolutionResult(
            query_name=query_name,
            final_name=final_name,
            rtype=RecordType.AAAA,
            addresses=tuple(synthesize_aaaa(a) for a in rrset.address_tuple),
            from_cache=from_cache and was_cached,
        )

    def query_both(
        self, name: str, now: float = 0.0, attempt: int = 0
    ) -> dict[AddressFamily, ResolutionResult | None]:
        """The monitor's first phase: A and AAAA queries for one site.

        Negative answers (NXDOMAIN, no record of the type) map to ``None``;
        an injected :class:`DnsTimeout` propagates so the caller can retry.
        """
        return {
            family: self.resolve_quiet(name, family, now, attempt)
            for family in (AddressFamily.IPV4, AddressFamily.IPV6)
        }

    def flush(self) -> None:
        """Drop the whole cache (used between monitoring rounds)."""
        self._cache.clear()
