"""Faulted rounds reproduce the per-site walk's fault rows byte-for-byte.

The fault-free fast path is covered by the pinned repository digests.
Faulted rounds always run ``MonitoringTool._monitor_site``, whatever
``REPRO_BATCH`` says, and their fault *rows* are order-sensitive (DNS
failures interleave with download retries within a site).  A 10-seed
golden fixture, generated from that per-site walk
(``REPRO_REGEN_GOLDEN=1`` regenerates it with batching forced off),
pins those rows under the default ``REPRO_BATCH=1`` setting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.batch import batching_enabled
from repro.config import small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.faults import fault_preset

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures" / "golden_faults_batch"
FIXTURE = FIXTURE_DIR / "faulted_sweep.json"

SWEEP_SEEDS = tuple(range(100, 110))
SWEEP_ROUNDS = 3


def _faulted_config(seed: int):
    return dataclasses.replace(
        small_config(seed=seed, scale=0.4), faults=fault_preset("mild")
    )


def _canonical_summary(result) -> dict:
    """Everything satellite 4 pins, in a stable JSON-ready shape.

    The faults tables are serialized row-for-row in observation order, so
    any reordering — not just a changed decision — breaks the digest.
    """
    repo = result.repository
    faults = {
        name: [
            [obs.site_id, obs.round_idx, obs.family.value, obs.kind]
            for obs in repo.database(name).faults
        ]
        for name in repo.vantage_names
    }
    n_failures = {
        name: [report.n_failures for report in reports]
        for name, reports in sorted(result.reports.items())
    }
    return {"faults": faults, "n_failures": n_failures}


def _digest(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_sweep() -> dict[str, str]:
    return {
        str(seed): _digest(
            _canonical_summary(
                run_campaign(
                    build_world(_faulted_config(seed)), n_rounds=SWEEP_ROUNDS
                )
            )
        )
        for seed in SWEEP_SEEDS
    }


class TestGoldenFaultedSweep:
    def test_batched_sweep_matches_scalar_golden(self, monkeypatch):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            # Regenerate with batching forced off, so the fixture comes
            # from the per-site walk whatever the default path becomes.
            os.environ["REPRO_BATCH"] = "0"
            try:
                FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
                FIXTURE.write_text(
                    json.dumps(_run_sweep(), indent=2, sort_keys=True) + "\n"
                )
            finally:
                os.environ.pop("REPRO_BATCH", None)
            pytest.skip("golden fixture regenerated")
        assert FIXTURE.exists(), (
            "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        monkeypatch.setenv("REPRO_BATCH", "1")
        assert batching_enabled(), "sweep must run under the default setting"
        assert _run_sweep() == json.loads(FIXTURE.read_text())


class TestLiveScalarParity:
    """The sweep's configuration really injects faults."""

    def test_sweep_actually_faults(self):
        result = run_campaign(
            build_world(_faulted_config(100)), n_rounds=SWEEP_ROUNDS
        )
        repo = result.repository
        assert (
            sum(len(repo.database(n).faults) for n in repo.vantage_names) > 0
        )

