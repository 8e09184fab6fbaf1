"""Every round reports live phase widths, faulted or not.

The execute phase publishes how many sites each phase carried (DNS,
identity, download) and keeps the slot-occupancy high-water mark alive;
faulted rounds run the same plane and publish the same gauges.
"""

from __future__ import annotations

import dataclasses

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
