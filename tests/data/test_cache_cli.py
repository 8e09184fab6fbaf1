"""The ``repro cache`` CLI and the store's enumerate/prune layer."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.engine import W6D, WEEKLY
from repro.engine.store import STAGING_DIR, CampaignStore, config_digest

from ..engine.test_store import tiny_campaign


@pytest.fixture(autouse=True)
def _restore_scenario_store():
    # The cache CLI repoints the scenario store via configure_cache;
    # restore the session-scoped hermetic store afterwards.
    from repro.experiments import scenario

    store, configured = scenario._STORE, scenario._STORE_CONFIGURED
    yield
    scenario._STORE, scenario._STORE_CONFIGURED = store, configured


@pytest.fixture()
def seeded_store(tmp_path, small_cfg):
    """A store holding two tiny entries with distinct mtimes."""
    store = CampaignStore(tmp_path / "cache")
    repository, reports = tiny_campaign()
    store.save(small_cfg, repository, reports, kind=WEEKLY)
    store.save(small_cfg, repository, reports, kind=W6D)
    # force distinct, ordered mtimes regardless of filesystem resolution
    weekly_meta = store.entry_dir(config_digest(small_cfg, WEEKLY)) / "meta.json"
    w6d_meta = store.entry_dir(config_digest(small_cfg, W6D)) / "meta.json"
    os.utime(weekly_meta, (1_000, 1_000))
    os.utime(w6d_meta, (2_000, 2_000))
    return store


def test_entries_newest_first(seeded_store, small_cfg):
    entries = seeded_store.entries()
    assert [e.kind for e in entries] == [W6D, WEEKLY]
    assert entries[0].digest == config_digest(small_cfg, W6D)
    assert entries[0].seed == small_cfg.seed
    assert entries[0].repository_digest is not None
    assert entries[0].size_bytes > 0


def test_entries_skips_invalid_directories(seeded_store):
    (seeded_store.root / "campaigns" / "not-an-entry").mkdir()
    bad = seeded_store.root / "campaigns" / "bad-meta"
    bad.mkdir()
    (bad / "meta.json").write_text("{truncated", encoding="utf-8")
    assert len(seeded_store.entries()) == 2


def test_prune_keeps_newest(seeded_store):
    removed = seeded_store.prune(keep_latest=1)
    assert [e.kind for e in removed] == [WEEKLY]
    remaining = seeded_store.entries()
    assert [e.kind for e in remaining] == [W6D]
    assert not removed[0].path.exists()


def test_prune_reclaims_staging_of_dead_saves(tmp_path):
    """A save killed before publishing leaves a staging directory; prune
    removes it once its owner pid is gone and keeps a live save's."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    staging = tmp_path / STAGING_DIR
    dead = staging / f"0123456789abcdef.{child.pid}.x1y2z3"
    retired = staging / f"0123456789abcdef.{child.pid}.a1b2c3.retired"
    live = staging / f"0123456789abcdef.{os.getpid()}.q7r8s9"
    unowned = staging / "0123456789abcdef.nopid"
    for directory in (dead, retired, live, unowned):
        directory.mkdir(parents=True)
        (directory / "columnar.bin").write_bytes(b"partial")
    CampaignStore(tmp_path).prune(keep_latest=0)
    assert not dead.exists()
    assert not retired.exists()
    assert live.is_dir()
    assert unowned.is_dir()


def test_save_names_its_staging_dir_after_its_pid(tmp_path, small_cfg):
    store = CampaignStore(tmp_path)
    repository, reports = tiny_campaign()
    seen = []
    publish = CampaignStore._publish

    def spy(staging, entry):
        seen.append(staging.name)
        publish(staging, entry)

    store._publish = spy
    store.save(small_cfg, repository, reports)
    assert seen and seen[0].split(".")[1] == str(os.getpid())


def test_prune_rejects_negative():
    with pytest.raises(ValueError):
        CampaignStore("unused").prune(keep_latest=-1)


def test_cache_ls_cli(seeded_store, capsys):
    rc = cli_main(["cache", "ls", "--cache-dir", str(seeded_store.root)])
    out = capsys.readouterr().out
    assert rc == 0
    header, *rows = out.strip().splitlines()
    assert header.split() == ["DIGEST", "KIND", "SEED", "SIZE", "BIN"]
    assert len(rows) == 2
    for entry, line in zip(seeded_store.entries(), rows):
        assert line.split()[-1] == str(entry.bin_bytes)


def test_cache_ls_json_cli(seeded_store, small_cfg, capsys):
    rc = cli_main(["cache", "ls", "--json", "--cache-dir", str(seeded_store.root)])
    assert rc == 0
    listing = json.loads(capsys.readouterr().out)
    assert [entry["kind"] for entry in listing] == [W6D, WEEKLY]
    assert listing[0]["digest"] == config_digest(small_cfg, W6D)
    assert listing[0]["size_bytes"] > 0
    for entry in listing:
        assert "artifacts" not in entry
        assert entry["bin_bytes"] > 0


def test_cache_prune_cli(seeded_store, capsys):
    rc = cli_main(
        [
            "cache", "prune", "--keep-latest", "1",
            "--cache-dir", str(seeded_store.root),
        ]
    )
    assert rc == 0
    assert "pruned 1" in capsys.readouterr().out
    assert [e.kind for e in seeded_store.entries()] == [W6D]


def test_cache_ls_empty_store(tmp_path, capsys):
    rc = cli_main(["cache", "ls", "--cache-dir", str(tmp_path / "empty")])
    assert rc == 0
    assert "no stored campaigns" in capsys.readouterr().out
