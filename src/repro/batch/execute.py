"""Execute phase of the batched round: schedule, draws, loops, bulk writes.

The execute phase walks the planned batch in dispatch order and performs
exactly the order-sensitive work the plan deferred: the 25-slot worker
pool schedule (which stamps every observation), the shared-RNG draws
(identity probes, then the repeated-download loops), and the database
writes.  Per-site draw accounting is the whole game — a DNS-filtered
site consumes nothing, a v6-unreachable site still burns the IPv4
probe's Gaussian, a measured site runs two converging loops — so the
per-vantage stream advances through the batch precisely as the scalar
``_monitor_site`` chain did, and the pinned content digests hold.

Only fault-free worlds reach this module: with faults injected, site
fates depend on execute-time failures (a DNS-exhausted family flips a
site to single-stack, probe retries consume extra draws), and
:meth:`MonitoringTool.run_round` runs its per-site walk instead.
"""

from __future__ import annotations

import heapq
import math

from ..monitor.database import (
    DownloadObservation,
    PathObservation,
    TransitionObservation,
)
from ..monitor.download import run_converging_loop
from ..monitor.tool import DNS_PHASE_SECONDS, PAGE_CHECK_SECONDS, RoundReport
from ..net.addresses import AddressFamily
from ..obs import get_logger, metrics
from .plan import (
    IDENTITY_FAILED,
    UNREACHABLE_V4,
    UNREACHABLE_V6,
    RoundPlan,
    build_round_plan,
)

_LOG = get_logger("batch.execute")

#: the monitor's per-phase counters (same registry objects tool.py holds).
_SITES_MONITORED = metrics.counter("monitor.sites_monitored")
_DNS_FILTERED = metrics.counter("monitor.dns_filtered")
_UNREACHABLE = metrics.counter("monitor.unreachable")
_IDENTITY_FAILED = metrics.counter("monitor.identity_failed")
_DUAL_STACK = metrics.counter("monitor.dual_stack")
_MEASURED = metrics.counter("monitor.sites_measured")
_SLOT_OCCUPANCY = metrics.gauge("monitor.slot_occupancy")
_DOWNLOADS = metrics.counter("download.samples")
_CONVERGED = metrics.counter("download.loops_converged")
_EXHAUSTED = metrics.counter("download.loops_exhausted")
_LOOP_SAMPLES = metrics.histogram("download.samples_per_loop")
#: batch-plane phase widths: how many sites each phase's arrays carried
#: this round (the batched analogue of the per-dispatch slot occupancy).
#: Faulted rounds never reach this module and leave them untouched.
_BATCH_DNS_WIDTH = metrics.gauge("monitor.batch.dns_width")
_BATCH_IDENTITY_WIDTH = metrics.gauge("monitor.batch.identity_width")
_BATCH_DOWNLOAD_WIDTH = metrics.gauge("monitor.batch.download_width")

#: duration of a dual-stack site that proved unreachable, as the scalar
#: path computes it faults-off: (0.2 + 0.0) + 1.0.
_UNREACH_SECONDS = DNS_PHASE_SECONDS + PAGE_CHECK_SECONDS


def run_batched_round(
    tool,
    round_idx: int,
    order: list[str],
    listed_now: set[str],
    n_new: int,
    round_start: float,
) -> RoundReport:
    """One fault-free monitoring round on the batched spine: plan, execute."""
    plan = build_round_plan(tool, round_idx, order, listed_now)
    return _execute_plan(tool, plan, n_new, round_start)


def _execute_plan(
    tool, plan: RoundPlan, n_new: int, round_start: float
) -> RoundReport:
    """Fault-free execute: bulk draws and inline loops over the plan."""
    cfg = tool.config
    rng = tool.rng
    round_idx = plan.round_idx
    sigma = tool.env.client.model.config.measurement_noise_sigma
    gauss = rng.gauss
    exp = math.exp
    heappush = heapq.heappush
    heappop = heapq.heappop

    slots = [(round_start, slot) for slot in range(cfg.max_concurrent)]
    heapq.heapify(slots)
    busy: list[float] = []
    occupancy_max = 0
    makespan = round_start
    n_dns_filtered = n_dual = n_unreachable = n_identity_failed = n_measured = 0
    total_samples = n_converged = n_exhausted = 0
    download_rows: list[DownloadObservation] = []
    path_rows: list[PathObservation] = []
    record_transitions = tool.env.record_transitions
    transition_rows: list[TransitionObservation] = []

    for site in plan.sites:
        free_at, slot = heappop(slots)
        while busy and busy[0] <= free_at:
            heappop(busy)
        occupancy = 1 + len(busy)
        if occupancy > occupancy_max:
            occupancy_max = occupancy
        if site is None:
            n_dns_filtered += 1
            duration = DNS_PHASE_SECONDS
        elif (kind := site.kind) == UNREACHABLE_V4:
            n_dual += 1
            n_unreachable += 1
            duration = _UNREACH_SECONDS
        elif kind == UNREACHABLE_V6:
            n_dual += 1
            n_unreachable += 1
            if sigma > 0:
                # The IPv4 identity probe ran (and drew) before the
                # scalar path discovered the v6 endpoint was dark.
                gauss(0.0, sigma)
            duration = _UNREACH_SECONDS
        else:
            n_dual += 1
            session_v4 = site.session_v4
            session_v6 = site.session_v6
            # Identity probes: one GET per family, v4 then v6 (the
            # session.get float expressions, inlined).
            if sigma > 0:
                v4_seconds = session_v4._page_kbytes / (
                    session_v4.round_mean * exp(gauss(0.0, sigma))
                )
                v6_seconds = session_v6._page_kbytes / (
                    session_v6.round_mean * exp(gauss(0.0, sigma))
                )
            else:
                v4_seconds = session_v4._page_kbytes / session_v4.round_mean
                v6_seconds = session_v6._page_kbytes / session_v6.round_mean
            duration = v4_seconds + v6_seconds + DNS_PHASE_SECONDS
            if kind == IDENTITY_FAILED:
                n_identity_failed += 1
            else:
                n_measured += 1
                for family, session in (
                    (AddressFamily.IPV4, session_v4),
                    (AddressFamily.IPV6, session_v6),
                ):
                    n, mean, half, loop_seconds, converged = (
                        run_converging_loop(session, rng, cfg)
                    )
                    duration += loop_seconds
                    total_samples += n
                    _LOOP_SAMPLES.observe(n)
                    if converged:
                        n_converged += 1
                    else:
                        n_exhausted += 1
                    download_rows.append(
                        DownloadObservation(
                            site_id=site.site_id,
                            round_idx=round_idx,
                            family=family,
                            n_samples=n,
                            mean_speed=mean,
                            ci_half_width=half,
                            converged=converged,
                            page_bytes=session.endpoint.page_bytes,
                            timestamp=free_at,
                        )
                    )
                    as_path = session.path.as_path
                    path_rows.append(
                        PathObservation(
                            site_id=site.site_id,
                            round_idx=round_idx,
                            family=family,
                            dest_asn=as_path[-1],
                            as_path=as_path,
                        )
                    )
                if record_transitions:
                    transition_rows.append(
                        TransitionObservation(
                            site_id=site.site_id,
                            round_idx=round_idx,
                            kind=session_v6.path.transition_kind,
                        )
                    )
        finish = free_at + duration
        heappush(slots, (finish, slot))
        heappush(busy, finish)
        if finish > makespan:
            makespan = finish

    database = tool.database
    database.add_dns_round(round_idx, plan.listed_counts, plan.dns_rows)
    database.add_page_checks(plan.page_rows)
    database.add_downloads(download_rows)
    database.add_paths(path_rows)
    database.add_transitions(transition_rows)
    tool._pair_resolver.flush_counters()

    _SITES_MONITORED.inc(len(plan.sites))
    _DNS_FILTERED.inc(n_dns_filtered)
    _DUAL_STACK.inc(n_dual)
    _UNREACHABLE.inc(n_unreachable)
    _IDENTITY_FAILED.inc(n_identity_failed)
    _MEASURED.inc(n_measured)
    _DOWNLOADS.inc(total_samples)
    _CONVERGED.inc(n_converged)
    _EXHAUSTED.inc(n_exhausted)
    # Per-phase batch widths, plus the legacy occupancy high-water mark:
    # there is no per-dispatch pool scan here, so the walk above tracked
    # the same dispatch-instant occupancy and records its maximum.
    _BATCH_DNS_WIDTH.set(len(plan.sites))
    _BATCH_IDENTITY_WIDTH.set(n_dual)
    _BATCH_DOWNLOAD_WIDTH.set(n_measured)
    if occupancy_max:
        _SLOT_OCCUPANCY.update_max(occupancy_max)
    _LOG.debug(
        "batched round done",
        extra={
            "vantage": tool.vantage.name,
            "round": round_idx,
            "monitored": len(plan.sites),
            "new": n_new,
            "dual_stack": n_dual,
            "measured": n_measured,
            "failures": 0,
        },
    )
    return RoundReport(
        round_idx=round_idx,
        n_monitored=len(plan.sites),
        n_new=n_new,
        n_dual_stack=n_dual,
        n_measured=n_measured,
        makespan_seconds=makespan - round_start,
        n_failures=0,
    )
