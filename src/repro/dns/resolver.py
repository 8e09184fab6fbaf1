"""A vantage's resolver: per-site A+AAAA answers kept current by invalidation.

The monitor's first phase asks an A and a AAAA query for every site; a
site with an A record but no AAAA is the paper's "not IPv6 accessible"
signal.  Within one monitoring round the DNS a vantage reads is fixed
(its zone source advances at round start), so the answers are pure
functions of (name, current entries).  :class:`Resolver` therefore
resolves a site once, answering both families from one CNAME chase, and
keeps the result until the view pushes an invalidation for a name on its
chain.  A resolved site is filed as dual-stack (its answer pair) or not,
so the round plan decides a site's DNS fate with one dict lookup.

The answers themselves live in the view's shared ``answers`` memo, keyed
by the entry the chase ended at.  Every vantage reading one world's DNS
timeline therefore shares one answer object per (name, version); DNS64
is a per-resolver flag that maps the shared A answer to a synthesized
AAAA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import DnsError
from ..net.addresses import Address, AddressFamily
from ..net.nat64 import synthesize_aaaa
from ..obs import metrics
from .records import RecordType
from .zone import ZoneSource

#: Maximum CNAME chain length before we declare a loop.
MAX_CNAME_DEPTH = 8

#: the sites-row of a resolved site that is not dual-stack.
SINGLE_STACK = ()

_CACHE_HITS = metrics.counter("dns.cache_hits")
_CACHE_MISSES = metrics.counter("dns.cache_misses")
#: AAAA answers fabricated from A records (RFC 6147 DNS64).
_DNS64_SYNTHESIZED = metrics.counter("dns.dns64.synthesized")


@dataclass(frozen=True, slots=True)
class ResolutionResult:
    """One family's answer: the name the chase ended at, and its addresses."""

    final_name: str
    addresses: tuple[Address, ...]


class Resolver:
    """Per-site A+AAAA answers over a zone source, current as of its view.

    ``store`` is a world's DNS timeline cursor or a hand-built
    :class:`~repro.dns.zone.ZoneStore`.  The view is taken on first use:
    :meth:`ZoneStore.view` adopts zones placed directly into ``zones``,
    so taking it when the environment is built could miss zones added
    afterwards.

    ``fault_check`` is the fault hook ``(name, family, now, attempt) ->
    seconds or None``; the round's execute phase calls it at dispatch,
    since an injected timeout is keyed by the clock, not by the answer.
    With ``dns64`` (RFC 6147) a name that has an A record but no AAAA
    gets a AAAA synthesized by embedding the IPv4 address in the NAT64
    well-known prefix; a real AAAA is never overridden and NXDOMAIN
    stays NXDOMAIN.

    Cache accounting: a site answered from the filed sites counts as
    both families answered from cache (+2 hits), a site resolved this
    round as two authoritative misses (+2 misses).  The round plan
    reports both through :meth:`account`; :meth:`flush_counters` pushes
    the totals to the registry once per round.
    """

    __slots__ = (
        "store",
        "fault_check",
        "dns64",
        "_view",
        "_answers",
        "_dirty",
        "_dependents",
        "sites",
        "no_v4",
        "v6",
        "pending_hits",
        "pending_misses",
        "pending_dns64",
    )

    def __init__(
        self,
        store: ZoneSource,
        fault_check: Callable[[str, AddressFamily, float, int], float | None]
        | None = None,
        dns64: bool = False,
    ) -> None:
        self.store = store
        self.fault_check = fault_check
        self.dns64 = dns64
        self._view = None
        self._answers: dict = {}
        #: names the view invalidated since the last :meth:`sync`.
        self._dirty: set[str] = set()
        #: CNAME target → query names whose chase passed through it.
        self._dependents: dict[str, set[str]] = {}
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

    def _bind(self) -> None:
        view = self._view = self.store.view()
        self._answers = view.answers
        self._dirty = view.watch()

    def sync(self) -> None:
        """Forget every site whose answers the view invalidated."""
        if self._view is None:
            self._bind()
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
        """Resolve ``name`` against the current view and file it.

        Returns the site's (v4, v6) answer pair when both families
        answer, else :data:`SINGLE_STACK`.  Raises :class:`DnsError` on
        a CNAME chain longer than :data:`MAX_CNAME_DEPTH` (a loop).
        """
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
        if self._view is None:
            self._bind()
        view_entry = self._view.entry
        a_type, aaaa_type = RecordType.A, RecordType.AAAA
        current = name.lower()
        if current != name:
            self._dependents.setdefault(current, set()).add(name)
        for _ in range(MAX_CNAME_DEPTH):
            entry = view_entry(current)
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
        answers = self._answers.get(entry)
        if answers is None:
            # [v4 answer, v6 answer, synthesized v6 (filled on demand)]
            answers = self._answers[entry] = [
                _result(entry, a_type),
                _result(entry, aaaa_type),
                None,
            ]
        res4, res6 = answers[0], answers[1]
        if res6 is None and res4 is not None and self.dns64:
            # DNS64 (RFC 6147): the name is v4-only, so the AAAA answer
            # is synthesized from the A record.
            self.pending_dns64 += 1
            res6 = answers[2]
            if res6 is None:
                res6 = answers[2] = ResolutionResult(
                    final_name=res4.final_name,
                    addresses=tuple(synthesize_aaaa(a) for a in res4.addresses),
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


def _result(entry, rtype: RecordType) -> ResolutionResult | None:
    """The answer of type ``rtype`` of a chase that ended at ``entry``."""
    rrset = entry.rrsets.get(rtype)
    if rrset is None:
        return None
    return ResolutionResult(final_name=entry.name, addresses=rrset.address_tuple)
