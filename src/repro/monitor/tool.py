"""The monitoring tool — the paper's Fig 2 pipeline.

Each round:

1. retrieve the latest top list (plus any external inputs) and add
   never-before-seen sites to the monitored set — once monitored, a site
   is tracked "from this point onward";
2. randomise the monitoring order (to avoid time-of-day bias);
3. per site: DNS A + AAAA queries; if dual-stack, download the main page
   over both families and compare byte counts (identical within 6%); if
   identical, run the repeated-download loop per family and record the
   statistics and the BGP path.

Sites are dispatched to a bounded worker pool (<= 25 concurrent) whose
schedule stamps every measurement with its simulated wall-clock time.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable

from ..batch import batching_enabled
from ..config import MonitorConfig
from ..dataplane.clock import SimulationClock
from ..dns.resolver import ResolutionResult, Resolver
from ..errors import DnsTimeout, MonitorError, UnreachableError
from ..net.addresses import AddressFamily
from ..obs import get_logger, metrics
from ..web.http import DownloadResult, DownloadSession, HttpClient
from .database import (
    DnsObservation,
    DownloadObservation,
    FaultObservation,
    MeasurementDatabase,
    PageCheck,
    PathObservation,
    TransitionObservation,
)
from .download import RepeatedDownloader
from .vantage import VantagePoint

#: nominal seconds spent on a site that fails an early phase.
DNS_PHASE_SECONDS = 0.2
PAGE_CHECK_SECONDS = 1.0

_LOG = get_logger("monitor.tool")
#: per-phase counters (module-cached: ``obs`` resets metrics in place).
_SITES_MONITORED = metrics.counter("monitor.sites_monitored")
_DNS_FILTERED = metrics.counter("monitor.dns_filtered")
_UNREACHABLE = metrics.counter("monitor.unreachable")
_IDENTITY_FAILED = metrics.counter("monitor.identity_failed")
_DUAL_STACK = metrics.counter("monitor.dual_stack")
_MEASURED = metrics.counter("monitor.sites_measured")
_SLOT_OCCUPANCY = metrics.gauge("monitor.slot_occupancy")
_FAULTS = metrics.counter("monitor.faults_observed")
_RETRIES_EXHAUSTED = metrics.counter("monitor.retries_exhausted")


@dataclass
class VantageEnvironment:
    """Everything one monitor needs from the world, injected as callables."""

    resolver: Resolver
    client: HttpClient
    clock: SimulationClock
    #: round -> ranked site names (the freshly retrieved top list).
    site_list: Callable[[int], list[str]]
    #: round -> extra names manually imported (Penn's DNS-cache feed).
    external_inputs: Callable[[int], list[str]]
    #: site name -> stable site id.
    site_id_of: Callable[[str], int]
    #: record per-(site, round) IPv6 transition kinds (on when the
    #: scenario's NAT64/DNS64 axis is enabled; legacy campaigns record
    #: nothing and keep their wire form bit-identical).
    record_transitions: bool = False


@dataclass(frozen=True)
class RoundReport:
    """Summary of one monitoring round (for logs and tests)."""

    round_idx: int
    n_monitored: int
    n_new: int
    n_dual_stack: int
    n_measured: int
    makespan_seconds: float
    #: injected failures observed this round (0 in fault-free runs).
    n_failures: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form (the engine's shard-result wire format)."""
        data = {
            "round_idx": self.round_idx,
            "n_monitored": self.n_monitored,
            "n_new": self.n_new,
            "n_dual_stack": self.n_dual_stack,
            "n_measured": self.n_measured,
            "makespan_seconds": self.makespan_seconds,
        }
        if self.n_failures:
            # Key emitted only when nonzero: fault-free payloads (and the
            # digests over them) stay bit-identical to earlier versions.
            data["n_failures"] = self.n_failures
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RoundReport":
        """Rebuild a report from :meth:`to_dict` output (lossless)."""
        return cls(
            round_idx=data["round_idx"],
            n_monitored=data["n_monitored"],
            n_new=data["n_new"],
            n_dual_stack=data["n_dual_stack"],
            n_measured=data["n_measured"],
            makespan_seconds=data["makespan_seconds"],
            n_failures=data.get("n_failures", 0),
        )


class MonitoringTool:
    """One vantage point's monitor, accumulating into its own database."""

    def __init__(
        self,
        vantage: VantagePoint,
        env: VantageEnvironment,
        config: MonitorConfig,
        rng: random.Random,
        max_sites_per_round: int = 0,
    ) -> None:
        config.validate()
        if max_sites_per_round < 0:
            raise MonitorError("max_sites_per_round must be >= 0")
        self.vantage = vantage
        self.env = env
        self.config = config
        self.rng = rng
        self.max_sites_per_round = max_sites_per_round
        self.database = MeasurementDatabase(vantage_name=vantage.name)
        self.downloader = RepeatedDownloader(env.client, config)
        self._monitored: list[str] = []
        self._monitored_set: set[str] = set()
        self._last_round: int | None = None
        self._round_faults = 0
        #: name → site id memo (stable for the life of the world).
        self._site_ids: dict[str, int] = {}
        #: batched execution plane for fault-free rounds (REPRO_BATCH=0
        #: forces the per-site walk; both produce bit-identical databases).
        self._batched = batching_enabled()
        #: lazy per-tool A+AAAA pair resolver (see repro.batch.dnsplan).
        self._pair_resolver = None

    # -- public API -----------------------------------------------------------

    def run_round(self, round_idx: int) -> RoundReport:
        """Run one full monitoring round; returns a summary report."""
        if self._last_round is not None and round_idx <= self._last_round:
            raise MonitorError(
                f"rounds must be monotonically increasing "
                f"(got {round_idx} after {self._last_round})"
            )
        self._last_round = round_idx
        self._round_faults = 0
        if not self.vantage.active_at(round_idx):
            return RoundReport(round_idx, 0, 0, 0, 0, 0.0)

        listed = self.env.site_list(round_idx)
        listed_now = set(listed)
        n_new = self._ingest_lists(round_idx, listed)
        order = list(self._monitored)
        self.rng.shuffle(order)
        if self.max_sites_per_round:
            order = order[: self.max_sites_per_round]

        round_start = self.env.clock.time_of_round(round_idx)
        if (
            self._batched
            and self.env.resolver.fault_check is None
            and not self.env.client.has_fault_hook
        ):
            # The batched execution plane: plan the site batch, then
            # execute it with bulk draws.  Only fault-free worlds take
            # it; injected faults make site fates execute-time decisions,
            # which the per-site walk below handles.  Import is deferred
            # — the batch package's plan/execute modules import this one.
            from ..batch.execute import run_batched_round

            return run_batched_round(
                self, round_idx, order, listed_now, n_new, round_start
            )
        # The worker pool: heap of (free_at, slot), dispatch in order.
        slots = [(round_start, slot) for slot in range(self.config.max_concurrent)]
        heapq.heapify(slots)
        # Finish times of dispatched sites; dispatch instants are
        # non-decreasing, so draining entries <= free_at leaves exactly
        # the sites still busy — an O(1) amortised occupancy count in
        # place of a scan over every slot per dispatch.
        busy: list[float] = []
        n_dual_stack = 0
        n_measured = 0
        makespan = round_start
        for name in order:
            free_at, slot = heapq.heappop(slots)
            while busy and busy[0] <= free_at:
                heapq.heappop(busy)
            # Occupancy at this dispatch instant: the popped slot plus
            # every other slot still busy past it.
            _SLOT_OCCUPANCY.update_max(1 + len(busy))
            duration, dual_stack, measured = self._monitor_site(
                name, round_idx, free_at, listed=name in listed_now
            )
            finish = free_at + duration
            heapq.heappush(slots, (finish, slot))
            heapq.heappush(busy, finish)
            makespan = max(makespan, finish)
            n_dual_stack += int(dual_stack)
            n_measured += int(measured)
        _LOG.debug(
            "round done",
            extra={
                "vantage": self.vantage.name,
                "round": round_idx,
                "monitored": len(order),
                "new": n_new,
                "dual_stack": n_dual_stack,
                "measured": n_measured,
                "failures": self._round_faults,
            },
        )
        return RoundReport(
            round_idx=round_idx,
            n_monitored=len(order),
            n_new=n_new,
            n_dual_stack=n_dual_stack,
            n_measured=n_measured,
            makespan_seconds=makespan - round_start,
            n_failures=self._round_faults,
        )

    @property
    def monitored_sites(self) -> list[str]:
        """All sites ever seen, in first-seen order."""
        return list(self._monitored)

    # -- internals --------------------------------------------------------------

    def _ingest_lists(self, round_idx: int, names: list[str]) -> int:
        """Append the round's unseen names (``names`` is its top list)."""
        if self.vantage.external_inputs:
            names = names + self.env.external_inputs(round_idx)
        n_new = 0
        for name in names:
            if name not in self._monitored_set:
                self._monitored_set.add(name)
                self._monitored.append(name)
                n_new += 1
        return n_new

    def _record_fault(
        self, site_id: int, round_idx: int, family: AddressFamily, kind: str
    ) -> None:
        """Record one injected failure (database, metrics, round counter)."""
        self.database.add_fault(
            FaultObservation(
                site_id=site_id, round_idx=round_idx, family=family, kind=kind
            )
        )
        _FAULTS.inc()
        if kind in ("exhausted", "dns_exhausted"):
            _RETRIES_EXHAUSTED.inc()
        self._round_faults += 1

    def _backoff_seconds(self, attempt: int) -> float:
        """Simulated wait before retry ``attempt`` (0-based, exponential)."""
        return (
            self.config.retry_initial_seconds
            * self.config.retry_backoff ** attempt
        )

    def _query_both_with_retry(
        self, name: str, site_id: int, round_idx: int, now: float
    ) -> tuple[dict[AddressFamily, ResolutionResult | None], float]:
        """The DNS phase with bounded retry on injected timeouts.

        Returns the per-family answers plus the extra simulated seconds
        the timeouts and backoff waits cost.  A family whose retry budget
        is exhausted counts as unresolved — in a faulty world a site can
        look v6-dark for a round, exactly the transient AAAA outages the
        paper's sanitization had to cope with.
        """
        results: dict[AddressFamily, ResolutionResult | None] = {}
        resolver = self.env.resolver
        if resolver.fault_check is None:
            # Faults off: DnsTimeout is impossible, so the retry loop is
            # pure overhead on the hottest per-site path.
            results[AddressFamily.IPV4] = resolver.resolve_quiet(
                name, AddressFamily.IPV4, now, 0
            )
            results[AddressFamily.IPV6] = resolver.resolve_quiet(
                name, AddressFamily.IPV6, now, 0
            )
            return results, 0.0
        extra = 0.0
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            for attempt in range(self.config.max_retries + 1):
                try:
                    results[family] = resolver.resolve_quiet(
                        name, family, now + extra, attempt
                    )
                    break
                except DnsTimeout as exc:
                    self._record_fault(site_id, round_idx, family, "dns_timeout")
                    extra += exc.seconds
                    if attempt < self.config.max_retries:
                        extra += self._backoff_seconds(attempt)
            else:
                results[family] = None
                self._record_fault(site_id, round_idx, family, "dns_exhausted")
        return results, extra

    def _probe_with_retry(
        self,
        session: DownloadSession,
        family: AddressFamily,
        site_id: int,
        round_idx: int,
    ) -> tuple[DownloadResult | None, float]:
        """One identity-phase GET with bounded retry on injected faults.

        Returns (successful result or None, simulated seconds spent).
        """
        seconds = 0.0
        for attempt in range(self.config.max_retries + 1):
            result = session.get(self.rng, fault_key=f"probe:{attempt}")
            seconds += result.seconds
            if result.ok:
                return result, seconds
            self._record_fault(site_id, round_idx, family, result.failure)
            if attempt < self.config.max_retries:
                seconds += self._backoff_seconds(attempt)
        self._record_fault(site_id, round_idx, family, "exhausted")
        return None, seconds

    def _monitor_site(
        self, name: str, round_idx: int, now: float, listed: bool = True
    ) -> tuple[float, bool, bool]:
        """Monitor one site; returns (duration, dual_stack, fully_measured)."""
        _SITES_MONITORED.inc()
        site_id = self._site_ids.get(name)
        if site_id is None:
            site_id = self._site_ids[name] = self.env.site_id_of(name)
        answers, dns_extra = self._query_both_with_retry(
            name, site_id, round_idx, now
        )
        v4 = answers[AddressFamily.IPV4]
        v6 = answers[AddressFamily.IPV6]
        self.database.add_dns(
            DnsObservation(
                site_id=site_id,
                name=name,
                round_idx=round_idx,
                has_v4=v4 is not None,
                has_v6=v6 is not None,
                listed=listed,
            )
        )
        if v4 is None or v6 is None:
            _DNS_FILTERED.inc()
            return DNS_PHASE_SECONDS + dns_extra, False, False
        _DUAL_STACK.inc()

        # Page identity phase: one download per family, compare byte counts.
        # Sessions pin the endpoint/path lookups once per (site, family);
        # the performance phase below reuses them.  Opens are interleaved
        # with the probes so an unreachable v6 destination is discovered
        # at exactly the point the old per-GET code raised (after the v4
        # probe has consumed its shared-RNG draws).
        try:
            session_v4 = self.env.client.open(
                v4.final_name, v4.addresses[0], AddressFamily.IPV4, round_idx
            )
            probe_v4, v4_seconds = self._probe_with_retry(
                session_v4, AddressFamily.IPV4, site_id, round_idx
            )
            session_v6 = self.env.client.open(
                v6.final_name, v6.addresses[0], AddressFamily.IPV6, round_idx
            )
            probe_v6, v6_seconds = self._probe_with_retry(
                session_v6, AddressFamily.IPV6, site_id, round_idx
            )
        except UnreachableError:
            _UNREACHABLE.inc()
            return DNS_PHASE_SECONDS + dns_extra + PAGE_CHECK_SECONDS, True, False
        if probe_v4 is None or probe_v6 is None:
            # Retry budget exhausted on an identity probe: give the site
            # up for this round, like an unreachable destination.
            return (
                DNS_PHASE_SECONDS + dns_extra + v4_seconds + v6_seconds,
                True,
                False,
            )
        larger = max(probe_v4.page_bytes, probe_v6.page_bytes)
        identical = (
            abs(probe_v4.page_bytes - probe_v6.page_bytes) / larger
            <= self.config.identity_threshold
        )
        self.database.add_page_check(
            PageCheck(
                site_id=site_id,
                round_idx=round_idx,
                v4_bytes=probe_v4.page_bytes,
                v6_bytes=probe_v6.page_bytes,
                identical=identical,
            )
        )
        duration = v4_seconds + v6_seconds + DNS_PHASE_SECONDS + dns_extra
        if not identical:
            _IDENTITY_FAILED.inc()
            return duration, True, False

        # Performance phase: repeated downloads, IPv4 first then IPv6,
        # reusing the identity probes' sessions (no further lookups).
        fully_measured = True
        for family, answer, session in (
            (AddressFamily.IPV4, v4, session_v4),
            (AddressFamily.IPV6, v6, session_v6),
        ):
            outcome = self.downloader.run(
                answer.final_name,
                answer.addresses[0],
                family,
                round_idx,
                self.rng,
                session=session,
            )
            duration += outcome.total_seconds
            for _ in range(outcome.n_timeouts):
                self._record_fault(site_id, round_idx, family, "timeout")
            for _ in range(outcome.n_resets):
                self._record_fault(site_id, round_idx, family, "reset")
            if outcome.gave_up:
                self._record_fault(site_id, round_idx, family, "exhausted")
            if outcome.first_result is None:
                # Every attempt failed: nothing measurable this round.
                fully_measured = False
                continue
            self.database.add_download(
                DownloadObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    family=family,
                    n_samples=outcome.n_samples,
                    mean_speed=outcome.mean_speed,
                    ci_half_width=outcome.ci_half_width,
                    converged=outcome.converged,
                    page_bytes=outcome.page_bytes,
                    timestamp=now,
                )
            )
            self.database.add_path(
                PathObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    family=family,
                    dest_asn=outcome.first_result.as_path[-1],
                    as_path=outcome.first_result.as_path,
                )
            )
            if (
                family is AddressFamily.IPV6
                and self.env.record_transitions
            ):
                self.database.add_transition(
                    TransitionObservation(
                        site_id=site_id,
                        round_idx=round_idx,
                        kind=session.path.transition_kind,
                    )
                )
        if fully_measured:
            _MEASURED.inc()
        return duration, True, fully_measured
