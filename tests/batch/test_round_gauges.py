"""Batched rounds report live phase-occupancy, not a frozen legacy value.

Under batching the old per-site schedule gauge would never move past the
value the last scalar round left behind; the batched execute phase must
instead publish per-phase batch widths and keep the slot-occupancy
high-water mark alive.
"""

from __future__ import annotations

import dataclasses

from repro.config import small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.faults import fault_preset
from repro.obs import metrics

CFG = small_config(seed=7, scale=0.5)


def test_batched_round_sets_phase_width_gauges(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "1")
    metrics.get_registry().reset()
    run_campaign(build_world(CFG), n_rounds=2)
    dns = metrics.gauge("monitor.batch.dns_width")
    identity = metrics.gauge("monitor.batch.identity_width")
    download = metrics.gauge("monitor.batch.download_width")
    occupancy = metrics.gauge("monitor.slot_occupancy")
    # Every dispatched site passes the DNS phase; only dual-stack sites
    # reach identity; only identical pairs reach the download loops.
    assert dns.value >= identity.value >= download.value >= 1
    assert occupancy.max_value >= 1


def test_scalar_fallback_leaves_batch_gauges_untouched(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "0")
    metrics.get_registry().reset()
    run_campaign(build_world(CFG), n_rounds=1)
    assert metrics.gauge("monitor.batch.dns_width").value == 0.0
    assert metrics.gauge("monitor.slot_occupancy").max_value >= 1


def test_faulted_rounds_leave_batch_gauges_untouched(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "1")
    metrics.get_registry().reset()
    faulted = dataclasses.replace(CFG, faults=fault_preset("mild"))
    run_campaign(build_world(faulted), n_rounds=1)
    assert metrics.gauge("monitor.batch.dns_width").value == 0.0
    assert metrics.gauge("monitor.slot_occupancy").max_value >= 1
