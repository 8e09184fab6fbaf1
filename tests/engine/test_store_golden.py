"""Golden bytes of a campaign store entry.

``CampaignStore.save`` writes ``columnar.bin``, ``reports.json`` and
``meta.json`` per campaign (plus ``world.pkl`` when given a world).
This module pins the sha256 of each of them, plus the
``repository_digest`` that ``meta.json`` records, for two small seeded
campaigns: one faults-off, and one with the ``heavy`` fault preset and
the NAT64/DNS64 transition axis on.  It also pins the two JSON
encodings of the campaign — the ``repository.json`` and
``columnar.json`` texts earlier store layouts wrote — re-encoded from
what a load decodes out of ``columnar.bin``, which shows the binary
round trip is lossless.  Any change to how the save encodes a campaign
must keep these bytes.

``world.pkl`` is left out: pickle bytes are not part of the contract.

To regenerate after an *intentional* format change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/engine/test_store_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.config import CampaignConfig, small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.data.columnar import iter_columnar_json
from repro.engine.store import CampaignStore, config_digest
from repro.faults import fault_preset

FIXTURE = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "golden_store_entry.json"
)


def _clean_config():
    return dataclasses.replace(
        small_config(seed=11, scale=0.4), campaign=CampaignConfig(n_rounds=4)
    )


def _heavy_transition_config():
    # Smaller world: heavy faults retry most downloads, so rows (and run
    # time) grow fast; 0.1 still yields thousands of fault and
    # transition rows.
    cfg = dataclasses.replace(
        small_config(seed=11, scale=0.1), campaign=CampaignConfig(n_rounds=3)
    )
    return dataclasses.replace(
        cfg,
        faults=fault_preset("heavy"),
        dns64=dataclasses.replace(cfg.dns64, enabled=True),
    )


CAMPAIGNS = {
    "clean": _clean_config,
    "heavy_transition": _heavy_transition_config,
}


def _sha256_of_chunks(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


def _entry_summary(tmp_path: pathlib.Path, config) -> dict:
    result = run_campaign(build_world(config))
    store = CampaignStore(tmp_path)
    entry = store.save(config, result.repository, result.reports)
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(entry.iterdir())
        if path.is_file() and path.name != "world.pkl"
    }
    assert sorted(files) == ["columnar.bin", "meta.json", "reports.json"]
    loaded = store.load_repository(config)
    files["repository.json"] = _sha256_of_chunks(
        [json.dumps(loaded.to_dict(), separators=(",", ":"))]
    )
    _, columnar = store.load_columnar_entry(config_digest(config))
    files["columnar.json"] = _sha256_of_chunks(iter_columnar_json(columnar))
    meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
    databases = [cdb for _, cdb in result.repository.items()]
    return {
        "files": files,
        "repository_digest": meta["repository_digest"],
        "rows": {
            "faults": sum(cdb.table("faults").n_rows for cdb in databases),
            "transitions": sum(
                cdb.table("transitions").n_rows for cdb in databases
            ),
        },
    }


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_store_entry_matches_golden_fixture(tmp_path, name):
    summary = _entry_summary(tmp_path, CAMPAIGNS[name]())

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden = (
            json.loads(FIXTURE.read_text(encoding="utf-8"))
            if FIXTURE.exists()
            else {}
        )
        golden[name] = summary
        FIXTURE.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip("golden fixture regenerated")

    assert FIXTURE.exists(), (
        "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert sorted(summary["files"]) == sorted(golden["files"])
    for filename, digest in golden["files"].items():
        assert summary["files"][filename] == digest, f"store drift in {filename}"
    assert summary["repository_digest"] == golden["repository_digest"]
    assert summary["rows"] == golden["rows"]


def test_heavy_transition_fixture_has_fault_and_transition_rows():
    # Guards against the fixture being regenerated from a campaign that
    # lost the tables it exists to pin (faults or DNS64 turned back off).
    if not FIXTURE.exists():
        pytest.skip("fixture not generated yet")
    rows = json.loads(FIXTURE.read_text(encoding="utf-8"))["heavy_transition"]["rows"]
    assert rows["faults"] > 0
    assert rows["transitions"] > 0
