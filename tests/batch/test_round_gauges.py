"""Every round reports live phase widths, faulted or not.

The execute phase publishes how many sites each phase carried (DNS,
identity, download) and keeps the slot-occupancy high-water mark alive;
faulted rounds run the same plane and publish the same gauges.  The
occupancy high-water mark is read off the one pool heap; it must equal
what a second heap of finish times says.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.execute import DNS_PHASE_SECONDS, _RoundExecution
from repro.batch.plan import RoundPlan, SitePlan
from repro.config import small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.faults import fault_preset
from repro.obs import metrics

CFG = small_config(seed=7, scale=0.5)


def _assert_phase_widths() -> None:
    dns = metrics.gauge("monitor.batch.dns_width")
    identity = metrics.gauge("monitor.batch.identity_width")
    download = metrics.gauge("monitor.batch.download_width")
    occupancy = metrics.gauge("monitor.slot_occupancy")
    # Every dispatched site passes the DNS phase; only dual-stack sites
    # reach identity; only identical pairs reach the download loops.
    assert dns.value >= identity.value >= download.value >= 1
    assert occupancy.max_value >= 1


def test_batched_round_sets_phase_width_gauges():
    metrics.get_registry().reset()
    run_campaign(build_world(CFG), n_rounds=2)
    _assert_phase_widths()


def test_faulted_rounds_set_phase_width_gauges():
    metrics.get_registry().reset()
    faulted = dataclasses.replace(CFG, faults=fault_preset("mild"))
    result = run_campaign(build_world(faulted), n_rounds=1)
    assert any(
        report.n_failures
        for reports in result.reports.values()
        for report in reports
    )
    _assert_phase_widths()


def _busy_heap_occupancy(durations, n_slots: int, start: float):
    """The slot occupancy high-water mark and makespan, as a second heap
    of finish times defines them: at each dispatch, drain the finishes at
    or before the dispatch instant; the rest are still running."""
    slots = [(start, slot) for slot in range(n_slots)]
    busy: list[float] = []
    occupancy_max = 0
    makespan = start
    for duration in durations:
        free_at, slot = heapq.heappop(slots)
        while busy and busy[0] <= free_at:
            heapq.heappop(busy)
        occupancy_max = max(occupancy_max, 1 + len(busy))
        finish = free_at + duration
        heapq.heappush(slots, (finish, slot))
        heapq.heappush(busy, finish)
        makespan = max(makespan, finish)
    return occupancy_max, makespan - start


class _ScriptedRound(_RoundExecution):
    """A round whose measured sites take scripted durations."""

    def __init__(self, tool, plan, durations):
        super().__init__(tool, plan)
        self.durations = iter(durations)
        self.occupancy_max = None

    def _site(self, site, now):
        return next(self.durations)

    def _flush(self, occupancy_max):
        self.occupancy_max = occupancy_max


def _tool(n_slots: int):
    client = SimpleNamespace(
        fault_hook=None,
        model=SimpleNamespace(config=SimpleNamespace(measurement_noise_sigma=0.0)),
    )
    return SimpleNamespace(
        env=SimpleNamespace(
            client=client,
            resolver=SimpleNamespace(fault_check=None),
            record_transitions=False,
        ),
        config=SimpleNamespace(max_concurrent=n_slots),
        rng=random.Random(0),
        vantage=SimpleNamespace(name="Scripted"),
    )


@given(
    n_slots=st.integers(1, 30),
    slots=st.lists(
        st.one_of(
            st.none(),
            st.sampled_from([DNS_PHASE_SECONDS, 0.4, 1.0, 1.7, 3.3, 9.0]),
        ),
        max_size=300,
    ),
    filtered_runs=st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_occupancy_equals_the_busy_heap_definition(n_slots, slots, filtered_runs):
    # Long runs of DNS-filtered slots: many pool slots free at one instant.
    for _ in range(filtered_runs):
        slots = [None] * (2 * n_slots + 3) + slots
    sites = [
        None if duration is None else SitePlan(f"s{i}", i, False, True, True)
        for i, duration in enumerate(slots)
    ]
    durations = [d for d in slots if d is not None]
    plan = RoundPlan(round_idx=0, sites=sites, listed_counts=(0, 0, 0))
    execution = _ScriptedRound(_tool(n_slots), plan, durations)
    report = execution.run(n_new=0, round_start=100.0)
    expected_max, expected_makespan = _busy_heap_occupancy(
        [DNS_PHASE_SECONDS if d is None else d for d in slots], n_slots, 100.0
    )
    assert execution.occupancy_max == expected_max
    assert report.makespan_seconds == expected_makespan
