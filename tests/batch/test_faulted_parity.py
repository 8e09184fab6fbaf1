"""Faulted campaigns reproduce their recorded bytes.

Faulted rounds run the same plan/execute plane as fault-free ones, with
injected failures as per-site fates decided at execute time.  Their
output is pinned as data: a golden fixture, recorded from the per-site
walk that ran faulted rounds before the two planes were merged, holds
per-seed digests of the full repository content digest, the fault rows
in observation order (any reordering breaks the digest, not only a
changed decision) and every :class:`RoundReport`:

* ``mild``: seeds 100–109 with the "mild" preset at scale 0.4;
* ``heavy_nat64``: ten seeds from 100 up with the "heavy" preset plus
  DNS64 at scale 0.06 (the benchmark's faulted shape);
* ``w6d_heavy``: one World IPv6 Day campaign on a heavy-fault seed-11
  world, where DNS faults are keyed by the 30-minute event clock.

``REPRO_REGEN_GOLDEN=1`` rewrites the fixture from the current code;
only do that for an intended change of the simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.config import small_config
from repro.core.campaign import run_campaign, run_world_ipv6_day
from repro.core.world import build_world
from repro.faults import fault_preset

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures" / "golden_faults_batch"
FIXTURE = FIXTURE_DIR / "faulted_sweep.json"

SWEEP_SEEDS = tuple(range(100, 110))
#: the first ten seeds from 100 whose scale-0.06 world can place all six
#: vantages (102, 103, 106 and 110 cannot and raise ConfigError).
HEAVY_SEEDS = (100, 101, 104, 105, 107, 108, 109, 111, 112, 114)
SWEEP_ROUNDS = 3
W6D_ROUNDS = 24


def _faulted_config(seed: int):
    return dataclasses.replace(
        small_config(seed=seed, scale=0.4), faults=fault_preset("mild")
    )


def _heavy_nat64_config(seed: int, scale: float = 0.06):
    cfg = small_config(seed=seed, scale=scale)
    return dataclasses.replace(
        cfg,
        faults=fault_preset("heavy"),
        dns64=dataclasses.replace(cfg.dns64, enabled=True),
    )


def _w6d_config():
    return dataclasses.replace(
        small_config(seed=11, scale=0.3), faults=fault_preset("heavy")
    )


def _canonical_summary(result) -> dict:
    """Content digest, fault rows and round reports, JSON-ready."""
    repo = result.repository
    faults = {
        name: [
            [site_id, round_idx, family, kind]
            for site_id, family, round_idx, kind in (
                repo.database(name).table("faults").rows()
            )
        ]
        for name in repo.vantage_names
    }
    reports = {
        name: [report.to_dict() for report in vantage_reports]
        for name, vantage_reports in sorted(result.reports.items())
    }
    return {
        "content_digest": repo.content_digest(),
        "faults": faults,
        "reports": reports,
    }


def _digest(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_sweep(make_config, seeds=SWEEP_SEEDS) -> dict[str, str]:
    return {
        str(seed): _digest(
            _canonical_summary(
                run_campaign(build_world(make_config(seed)), n_rounds=SWEEP_ROUNDS)
            )
        )
        for seed in seeds
    }


def _run_w6d() -> dict:
    result = run_world_ipv6_day(build_world(_w6d_config()), n_rounds=W6D_ROUNDS)
    return {
        "content_digest": result.repository.content_digest(),
        "digest": _digest(_canonical_summary(result)),
        "max_makespan_seconds": max(
            report.makespan_seconds
            for reports in result.reports.values()
            for report in reports
        ),
    }


def _golden() -> dict:
    assert FIXTURE.exists(), (
        "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    return json.loads(FIXTURE.read_text())


class TestGoldenFaultedSweep:
    def test_batched_sweep_matches_scalar_golden(self):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
            FIXTURE.write_text(
                json.dumps(
                    {
                        "mild": _run_sweep(_faulted_config),
                        "heavy_nat64": _run_sweep(_heavy_nat64_config, HEAVY_SEEDS),
                        "w6d_heavy": _run_w6d(),
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
            pytest.skip("golden fixture regenerated")
        assert _run_sweep(_faulted_config) == _golden()["mild"]

    def test_heavy_nat64_sweep_matches_golden(self):
        assert (
            _run_sweep(_heavy_nat64_config, HEAVY_SEEDS)
            == _golden()["heavy_nat64"]
        )

    def test_faulted_w6d_campaign_matches_golden(self):
        assert _run_w6d() == _golden()["w6d_heavy"]


class TestLiveScalarParity:
    """The sweep's configuration really injects faults."""

    def test_sweep_actually_faults(self):
        result = run_campaign(
            build_world(_faulted_config(100)), n_rounds=SWEEP_ROUNDS
        )
        repo = result.repository
        assert (
            sum(repo.database(n).table("faults").n_rows for n in repo.vantage_names)
            > 0
        )
