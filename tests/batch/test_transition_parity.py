"""Transition-enabled campaigns are pinned and backend-independent.

The NAT64/DNS64 axis threads new rows (the transitions table), new DNS
answers (synthesized AAAAs), and new forwarding paths (the translated
leg) through the round plane and both backends.  This module pins the
combinations three ways:

* a 10-seed golden fixture, recorded from the per-site walk that ran
  next to the batched plane until the two were merged, that every
  campaign must keep matching byte-for-byte (``REPRO_REGEN_GOLDEN=1``
  rewrites it, for an intended change of the simulation only),
* per-seed checks of a subset against the same fixture, and
* serial-vs-process byte parity of a full transition-enabled export
  tree (every CSV including ``transitions.csv``, plus the manifest).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.config import ExecutionConfig, small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.monitor.export import export_repository

FIXTURE_DIR = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "golden_transitions_batch"
)
FIXTURE = FIXTURE_DIR / "transition_sweep.json"

SWEEP_SEEDS = tuple(range(100, 110))
SWEEP_ROUNDS = 3


def _transition_config(seed: int):
    cfg = small_config(seed=seed, scale=0.4)
    return dataclasses.replace(
        cfg, dns64=dataclasses.replace(cfg.dns64, enabled=True)
    )


def _canonical_summary(result) -> dict:
    """Transitions tables row-for-row plus the repository digest.

    Serialization order is part of the contract: any reordering of
    transition rows — not just a changed classification — breaks it.
    """
    repo = result.repository
    transitions = {
        name: repo.database(name).table("transitions").rows()
        for name in repo.vantage_names
    }
    return {
        "transitions": transitions,
        "repository_digest": repo.content_digest(),
    }


def _digest(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_sweep() -> dict[str, str]:
    return {
        str(seed): _digest(
            _canonical_summary(
                run_campaign(
                    build_world(_transition_config(seed)),
                    n_rounds=SWEEP_ROUNDS,
                )
            )
        )
        for seed in SWEEP_SEEDS
    }


class TestGoldenTransitionSweep:
    def test_batched_sweep_matches_scalar_golden(self):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
            FIXTURE.write_text(
                json.dumps(_run_sweep(), indent=2, sort_keys=True) + "\n"
            )
            pytest.skip("golden fixture regenerated")
        assert FIXTURE.exists(), (
            "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert _run_sweep() == json.loads(FIXTURE.read_text())


class TestLiveScalarParity:
    """Single seeds against the recorded walk, one test each."""

    @pytest.mark.parametrize("seed", [100, 104, 109])
    def test_transition_tables_identical(self, seed):
        result = run_campaign(
            build_world(_transition_config(seed)), n_rounds=SWEEP_ROUNDS
        )
        golden = json.loads(FIXTURE.read_text())
        assert _digest(_canonical_summary(result)) == golden[str(seed)]

    def test_sweep_actually_translates(self):
        result = run_campaign(
            build_world(_transition_config(100)), n_rounds=SWEEP_ROUNDS
        )
        repo = result.repository
        kinds = {
            kind
            for name in repo.vantage_names
            for kind in repo.database(name)
            .table("transitions")
            .column("transition")
            .values_list()
        }
        assert "translated" in kinds


class TestBackendExportParity:
    """Serial and process backends export byte-identical trees."""

    def _export_tree(self, backend: str, directory: pathlib.Path) -> dict:
        execution = (
            ExecutionConfig(backend="process", jobs=2)
            if backend == "process"
            else ExecutionConfig(backend="serial")
        )
        result = run_campaign(
            build_world(_transition_config(101)),
            n_rounds=SWEEP_ROUNDS,
            execution=execution,
        )
        export_repository(result.repository, directory)
        return {
            path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }

    def test_export_trees_byte_identical(self, tmp_path):
        serial = self._export_tree("serial", tmp_path / "serial")
        process = self._export_tree("process", tmp_path / "process")
        assert sorted(serial) == sorted(process)
        for name, blob in serial.items():
            assert process[name] == blob, f"{name} differs across backends"
        # the transition axis actually reached the export layer
        assert any(name.endswith("transitions.csv") for name in serial)
