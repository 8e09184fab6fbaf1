"""Execute phase of the round: schedule, faults, probes, loops, bulk writes.

The execute phase walks the planned batch in dispatch order through the
25-slot worker pool, whose schedule stamps every observation, and does
each site's order-sensitive work at its dispatch instant:

1. the DNS phase's injected timeouts, retried with backoff per family
   (the resolver's fault hook keys them by the clock at ``now`` plus the
   seconds already spent, so the World IPv6 Day 30-minute clock sees
   them in the right round); an exhausted family leaves the site
   single-stack for the round;
2. the two identity probes over the sessions the plan opened, IPv4
   then IPv6 (both run even when the IPv4 probe is exhausted; an
   unreachable destination ends the site where its open failed, so a
   v6-dark site still pays for the IPv4 probe's draw);
3. the two repeated-download loops, IPv4 then IPv6.

Opening a session is a pure function of (site, family, round), so the
plan does it; doing it here instead, between the shared-stream draws,
measured a few percent slower on the fault-free campaign.

Per-site draw accounting is the whole game — a DNS-filtered site
consumes nothing, a v6-unreachable site still burns the IPv4 probe's
Gaussian, a measured site runs two converging loops, and a failed GET
draws nothing — so the per-vantage stream advances exactly as the
pinned content digests require.  Every draw is read off one
:class:`~repro.batch.sampling.GaussTape` per round, in dispatch order.
The tape starts with the plan's reserved draws, the ones the round is
sure to make, drawn as one block; a loop that needs more samples draws
them from the stream on demand.  The reservation is never more than the
round consumes, so the tape is never over-drawn and the stream ends the
round exactly where one ``gauss`` call per sample leaves it.  A faulty
world reserves nothing and draws every sample on demand.

The pool is one heap of (free time, slot).  The slot occupancy at a
dispatch — the sites still running plus the one dispatched — is the
pool size minus the slots free at that instant, plus one.  The slots
free at the dispatch instant are the heap's entries tied with its root,
a subtree at the top of the heap, so they are counted by walking it,
and only while the round's maximum could still rise.
"""

from __future__ import annotations

import heapq

from ..monitor.database import (
    DnsObservation,
    DownloadObservation,
    FaultObservation,
    PageCheck,
    PathObservation,
    TransitionObservation,
)
from ..monitor.download import backoff_seconds, probe_page, run_converging_loop
from ..monitor.tool import RoundReport
from ..net.addresses import AddressFamily
from ..obs import get_logger, metrics
from .plan import RoundPlan, SitePlan, build_round_plan
from .sampling import GaussTape

#: nominal seconds spent on a site that fails an early phase.
DNS_PHASE_SECONDS = 0.2
PAGE_CHECK_SECONDS = 1.0

_V4 = AddressFamily.IPV4
_V6 = AddressFamily.IPV6

_LOG = get_logger("batch.execute")

#: the monitor's per-phase counters (module-cached: ``obs`` resets them
#: in place).
_SITES_MONITORED = metrics.counter("monitor.sites_monitored")
_DNS_FILTERED = metrics.counter("monitor.dns_filtered")
_UNREACHABLE = metrics.counter("monitor.unreachable")
_IDENTITY_FAILED = metrics.counter("monitor.identity_failed")
_DUAL_STACK = metrics.counter("monitor.dual_stack")
_MEASURED = metrics.counter("monitor.sites_measured")
_SLOT_OCCUPANCY = metrics.gauge("monitor.slot_occupancy")
_FAULTS = metrics.counter("monitor.faults_observed")
_RETRIES_EXHAUSTED = metrics.counter("monitor.retries_exhausted")
_DOWNLOADS = metrics.counter("download.samples")
_CONVERGED = metrics.counter("download.loops_converged")
_EXHAUSTED = metrics.counter("download.loops_exhausted")
_LOOP_SAMPLES = metrics.histogram("download.samples_per_loop")
#: per-round phase widths: how many sites each phase carried this round
#: (the DNS phase sees every dispatched site, the identity phase the
#: dual-stack ones, the download phase those with identical pages).
_BATCH_DNS_WIDTH = metrics.gauge("monitor.batch.dns_width")
_BATCH_IDENTITY_WIDTH = metrics.gauge("monitor.batch.identity_width")
_BATCH_DOWNLOAD_WIDTH = metrics.gauge("monitor.batch.download_width")


def run_batched_round(
    tool,
    round_idx: int,
    order: list[str],
    listed_now: set[str],
    n_new: int,
    round_start: float,
) -> RoundReport:
    """One monitoring round: plan the site batch, then execute it."""
    plan = build_round_plan(tool, round_idx, order, listed_now)
    return _RoundExecution(tool, plan).run(n_new, round_start)


def _occupancy(
    slots: list[tuple[float, int]], free_at: float, n_slots: int, floor: int
) -> int:
    """Sites running at a dispatch at ``free_at``, the dispatched one included.

    ``slots`` is the pool heap before the dispatch, with ``free_at`` at
    its root.  Slots free at ``free_at`` are the entries tied with the
    root; they form a subtree at the top of the heap (a tied entry's
    parent is tied too), walked here until the count shows the
    occupancy cannot exceed ``floor``.
    """
    limit = n_slots + 1 - floor  # at this many free slots, occupancy <= floor
    n_free = 0
    stack = [0]
    pop, push = stack.pop, stack.append
    while stack:
        idx = pop()
        n_free += 1
        if n_free >= limit:
            return floor
        child = 2 * idx + 1
        if child < n_slots and slots[child][0] == free_at:
            push(child)
        child += 1
        if child < n_slots and slots[child][0] == free_at:
            push(child)
    return n_slots - n_free + 1


class _RoundExecution:
    """One round's execute phase: per-site work plus the rows it makes."""

    __slots__ = (
        "tool", "plan", "round_idx", "cfg", "tape", "fault_hook", "fault_check",
        "record_transitions", "listed_counts", "dns_rows", "page_rows",
        "download_rows", "path_rows", "transition_rows", "fault_rows",
        "n_dns_filtered", "n_dual", "n_unreachable", "n_identity_failed",
        "n_downloading", "n_measured", "n_samples", "n_converged",
        "n_exhausted",
    )

    def __init__(self, tool, plan: RoundPlan) -> None:
        env = tool.env
        self.tool = tool
        self.plan = plan
        self.round_idx = plan.round_idx
        self.cfg = tool.config
        self.tape = GaussTape(
            tool.rng,
            env.client.model.config.measurement_noise_sigma,
            plan.reserved_draws,
        )
        self.fault_hook = env.client.fault_hook
        self.fault_check = env.resolver.fault_check
        self.record_transitions = env.record_transitions
        self.listed_counts = list(plan.listed_counts)
        self.dns_rows: list[DnsObservation] = []
        self.page_rows: list[PageCheck] = []
        self.download_rows: list[DownloadObservation] = []
        self.path_rows: list[PathObservation] = []
        self.transition_rows: list[TransitionObservation] = []
        self.fault_rows: list[FaultObservation] = []
        self.n_dns_filtered = self.n_dual = self.n_unreachable = 0
        self.n_identity_failed = self.n_downloading = self.n_measured = 0
        self.n_samples = self.n_converged = self.n_exhausted = 0

    def run(self, n_new: int, round_start: float) -> RoundReport:
        """Walk the dispatch order through the worker pool."""
        plan = self.plan
        heapreplace = heapq.heapreplace
        n_slots = self.cfg.max_concurrent
        slots = [(round_start, slot) for slot in range(n_slots)]
        occupancy_max = 0
        makespan = round_start
        monitor_site = self._site
        for site in plan.sites:
            free_at, slot = slots[0]
            if occupancy_max < n_slots:
                occupancy = _occupancy(slots, free_at, n_slots, occupancy_max)
                if occupancy > occupancy_max:
                    occupancy_max = occupancy
            if site is None:
                self.n_dns_filtered += 1
                duration = DNS_PHASE_SECONDS
            else:
                duration = monitor_site(site, free_at)
            finish = free_at + duration
            heapreplace(slots, (finish, slot))
            if finish > makespan:
                makespan = finish
        self._flush(occupancy_max)
        n_sites = len(plan.sites)
        _LOG.debug(
            "round done",
            extra={
                "vantage": self.tool.vantage.name,
                "round": plan.round_idx,
                "monitored": n_sites,
                "new": n_new,
                "dual_stack": self.n_dual,
                "measured": self.n_measured,
                "failures": len(self.fault_rows),
            },
        )
        return RoundReport(
            round_idx=plan.round_idx,
            n_monitored=n_sites,
            n_new=n_new,
            n_dual_stack=self.n_dual,
            n_measured=self.n_measured,
            makespan_seconds=makespan - round_start,
            n_failures=len(self.fault_rows),
        )

    def _record_faults(self, site_id: int, family: AddressFamily, kinds) -> None:
        round_idx = self.round_idx
        for kind in kinds:
            self.fault_rows.append(
                FaultObservation(
                    site_id=site_id, round_idx=round_idx, family=family, kind=kind
                )
            )

    def _dns_phase(self, site: SitePlan, now: float) -> tuple[bool, float]:
        """The DNS phase's injected timeouts for one site.

        Returns whether the site is still dual-stack, and the simulated
        seconds the timeouts and backoff waits cost.  A family whose
        retry budget runs out counts as unresolved — in a faulty world a
        site can look v6-dark for a round, exactly the transient AAAA
        outages the paper's sanitization had to cope with.
        """
        cfg = self.cfg
        check = self.fault_check
        answers = [site.has_v4, site.has_v6]
        extra = 0.0
        for idx, family in enumerate((_V4, _V6)):
            for attempt in range(cfg.max_retries + 1):
                timeout = check(site.name, family, now + extra, attempt)
                if timeout is None:
                    break
                self._record_faults(site.site_id, family, ("dns_timeout",))
                extra += timeout
                if attempt < cfg.max_retries:
                    extra += backoff_seconds(cfg, attempt)
            else:
                self._record_faults(site.site_id, family, ("dns_exhausted",))
                if site.listed and answers[idx]:
                    self.listed_counts[1 + idx] -= 1
                answers[idx] = False
        return answers[0] and answers[1], extra

    def _site(self, site: SitePlan, now: float) -> float:
        """Monitor one planned site dispatched at ``now``; its duration."""
        round_idx = self.round_idx
        site_id = site.site_id
        if self.fault_check is None:
            dual, dns_extra = site.has_v4 and site.has_v6, 0.0
        else:
            dual, dns_extra = self._dns_phase(site, now)
        if not dual:
            self.n_dns_filtered += 1
            return DNS_PHASE_SECONDS + dns_extra
        self.n_dual += 1
        self.dns_rows.append(
            DnsObservation(
                site_id=site_id,
                name=site.name,
                round_idx=round_idx,
                has_v4=True,
                has_v6=True,
                listed=site.listed,
            )
        )

        # Page identity phase: one GET per family, compare byte counts.
        # An unreachable destination ends the site where the monitor's
        # open failed: a v6-dark site after the v4 probe drew its Gaussian.
        cfg, tape, hook = self.cfg, self.tape, self.fault_hook
        session_v4 = site.session_v4
        if session_v4 is None:
            self.n_unreachable += 1
            return DNS_PHASE_SECONDS + dns_extra + PAGE_CHECK_SECONDS
        v4_seconds, v4_failures = probe_page(session_v4, tape, cfg, hook)
        if v4_failures:
            self._record_faults(site_id, _V4, v4_failures)
        session_v6 = site.session_v6
        if session_v6 is None:
            # The site costs no probe seconds, though the v4 probe ran.
            self.n_unreachable += 1
            return DNS_PHASE_SECONDS + dns_extra + PAGE_CHECK_SECONDS
        v6_seconds, v6_failures = probe_page(session_v6, tape, cfg, hook)
        if v6_failures:
            self._record_faults(site_id, _V6, v6_failures)
        if "exhausted" in v4_failures or "exhausted" in v6_failures:
            # A probe's retry budget ran out: give the site up for this
            # round, like an unreachable destination.
            return DNS_PHASE_SECONDS + dns_extra + v4_seconds + v6_seconds
        identical = site.identical
        self.page_rows.append(
            PageCheck(
                site_id=site_id,
                round_idx=round_idx,
                v4_bytes=session_v4.endpoint.page_bytes,
                v6_bytes=session_v6.endpoint.page_bytes,
                identical=identical,
            )
        )
        duration = v4_seconds + v6_seconds + DNS_PHASE_SECONDS + dns_extra
        if not identical:
            self.n_identity_failed += 1
            return duration

        # Performance phase: repeated downloads, IPv4 first then IPv6,
        # reusing the identity probes' sessions (no further lookups).
        self.n_downloading += 1
        fully_measured = True
        for family, session in ((_V4, session_v4), (_V6, session_v6)):
            n, mean, half, loop_seconds, converged, failures = (
                run_converging_loop(session, tape, cfg, hook)
            )
            duration += loop_seconds
            if failures:
                self._record_faults(site_id, family, failures)
            self.n_samples += n
            _LOOP_SAMPLES.observe(n)
            if converged:
                self.n_converged += 1
            else:
                self.n_exhausted += 1
            if not n:
                # Every attempt failed: nothing measurable this round.
                fully_measured = False
                continue
            self.download_rows.append(
                DownloadObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    family=family,
                    n_samples=n,
                    mean_speed=mean,
                    ci_half_width=half,
                    converged=converged,
                    page_bytes=session.endpoint.page_bytes,
                    timestamp=now,
                )
            )
            as_path = session.path.as_path
            self.path_rows.append(
                PathObservation(
                    site_id=site_id,
                    round_idx=round_idx,
                    family=family,
                    dest_asn=as_path[-1],
                    as_path=as_path,
                )
            )
            if family is _V6 and self.record_transitions:
                self.transition_rows.append(
                    TransitionObservation(
                        site_id=site_id,
                        round_idx=round_idx,
                        kind=session.path.transition_kind,
                    )
                )
        if fully_measured:
            self.n_measured += 1
        return duration

    def _flush(self, occupancy_max: int) -> None:
        """Land the round's rows and counters in one call per table."""
        plan = self.plan
        database = self.tool.database
        database.add_dns_round(
            plan.round_idx, tuple(self.listed_counts), self.dns_rows
        )
        database.add_page_checks(self.page_rows)
        database.add_downloads(self.download_rows)
        database.add_paths(self.path_rows)
        database.add_transitions(self.transition_rows)
        for row in self.fault_rows:
            database.add_fault(row)
        self.tool.env.resolver.flush_counters()

        n_sites = len(plan.sites)
        _SITES_MONITORED.inc(n_sites)
        _DNS_FILTERED.inc(self.n_dns_filtered)
        _DUAL_STACK.inc(self.n_dual)
        _UNREACHABLE.inc(self.n_unreachable)
        _IDENTITY_FAILED.inc(self.n_identity_failed)
        _MEASURED.inc(self.n_measured)
        _DOWNLOADS.inc(self.n_samples)
        _CONVERGED.inc(self.n_converged)
        _EXHAUSTED.inc(self.n_exhausted)
        if self.fault_rows:
            _FAULTS.inc(len(self.fault_rows))
            _RETRIES_EXHAUSTED.inc(
                sum(
                    row.kind in ("exhausted", "dns_exhausted")
                    for row in self.fault_rows
                )
            )
        _BATCH_DNS_WIDTH.set(n_sites)
        _BATCH_IDENTITY_WIDTH.set(self.n_dual)
        _BATCH_DOWNLOAD_WIDTH.set(self.n_downloading)
        if occupancy_max:
            _SLOT_OCCUPANCY.update_max(occupancy_max)
