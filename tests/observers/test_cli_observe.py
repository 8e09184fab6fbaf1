"""The ``repro observe`` subcommand: output modes, store wiring."""

from __future__ import annotations

import hashlib
import json

from repro import obs
from repro.cli import build_parser, main
from repro.engine import WEEKLY
from repro.engine.store import CampaignStore
from repro.observers import ObserverReport


def test_observe_parser_defaults():
    args = build_parser().parse_args(["observe"])
    assert args.seed == 11
    assert args.scale == 1.0
    assert args.rounds is None
    assert args.seeds is None
    assert args.json is False


def test_observe_human_output(capsys):
    assert main(["observe", "--seed", "11", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "OBSERVER" in out
    for name in ("speed_parity", "hop_inflation", "region_adoption"):
        assert name in out


def test_observe_json_document(capsys):
    assert main(["observe", "--seed", "11", "--no-cache", "--json"]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)
    assert len(document["reports"]) >= 6
    for payload in document["reports"].values():
        report = ObserverReport.from_payload(payload)  # digest verifies
        assert report.campaign_digest == document["campaign_digest"]


def test_observe_persists_reports_to_store(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["observe", "--seed", "11", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    store = CampaignStore(cache)
    entries = store.entries()
    assert len(entries) == 1
    digest = entries[0].digest
    assert entries[0].kind == WEEKLY
    persisted = store.list_observer_reports(digest)
    assert len(persisted) >= 6
    # the persisted artifact is a verifiable canonical report
    raw = store.load_observer_report(digest, "speed_parity")
    report = ObserverReport.from_payload(json.loads(raw))
    assert report.campaign_digest == digest
    # a second run hits the store and reuses the campaign
    assert main(["observe", "--seed", "11", "--cache-dir", str(cache)]) == 0
    assert len(store.entries()) == 1


#: sha256 of the ``observe --seed 11 --scale 0.1 --json`` document, which
#: a store miss and a store hit must both print.
OBSERVE_SEED11_SCALE01_SHA256 = (
    "d05afbb02ee81d5d90ddecd5743e2b9316769565cf19c8da6528a7e705b9f6c4"
)


def test_observe_store_hit_reuses_the_entry_columns(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = [
        "observe", "--seed", "11", "--scale", "0.1",
        "--cache-dir", str(cache), "--json",
    ]
    encodes = obs.get_registry().counter("data.columnar.encodes")
    documents, deltas = [], []
    for _ in ("miss", "hit"):
        before = encodes.value
        assert main(argv) == 0
        deltas.append(encodes.value - before)
        documents.append(capsys.readouterr().out.encode("utf-8"))
    store = CampaignStore(cache)
    _, columnar = store.load_columnar_entry(store.entries()[0].digest)
    # the miss transposes each database once (in its save); the hit
    # runs on the decoded columnar.bin and encodes nothing
    assert deltas == [len(columnar.databases), 0]
    assert documents[1] == documents[0]
    assert hashlib.sha256(documents[1]).hexdigest() == OBSERVE_SEED11_SCALE01_SHA256


#: sha256 of the ``observe --seed 11 --scale 0.06 --faults heavy
#: --transition --json`` document: every observer body non-empty,
#: ``failure_watch`` and ``transition_matrix`` included.
OBSERVE_SEED11_HEAVY_TRANSITION_SHA256 = (
    "49f537b319e3db603dc65caf78e9359558a40b6922ac404a9040e8e41b6b12cc"
)


def test_observe_faulted_transition_document_is_pinned(capsys):
    assert main([
        "observe", "--seed", "11", "--scale", "0.06", "--faults", "heavy",
        "--transition", "--no-cache", "--json",
    ]) == 0
    document = capsys.readouterr().out.encode("utf-8")
    reports = json.loads(document)["reports"]
    assert reports["failure_watch"]["body"]["summary"]["n_faults"] > 0
    assert reports["transition_matrix"]["body"]["summary"]["n_sites"] > 0
    assert (
        hashlib.sha256(document).hexdigest()
        == OBSERVE_SEED11_HEAVY_TRANSITION_SHA256
    )


def test_observe_subset(capsys):
    assert main([
        "observe", "--seed", "11", "--no-cache", "--json",
        "--observers", "speed_parity",
    ]) == 0
    document = json.loads(capsys.readouterr().out)
    assert sorted(document["reports"]) == ["speed_parity"]


def test_observe_multi_seed_sweep(capsys):
    assert main([
        "observe", "--no-cache", "--scale", "0.3", "--seeds", "11", "12",
        "--observers", "speed_parity",
    ]) == 0
    out = capsys.readouterr().out
    assert "headline spread across seeds" in out
    assert "seed 11" in out and "seed 12" in out


def test_observe_multi_seed_json(capsys):
    assert main([
        "observe", "--no-cache", "--scale", "0.3", "--seeds", "11", "12",
        "--json", "--observers", "hop_inflation",
    ]) == 0
    document = json.loads(capsys.readouterr().out)
    assert sorted(document["sweep"]) == ["11", "12"]
    digests = {
        seed: doc["campaign_digest"] for seed, doc in document["sweep"].items()
    }
    assert digests["11"] != digests["12"]


def test_observe_long_horizon_rounds(capsys):
    assert main([
        "observe", "--no-cache", "--scale", "0.3", "--rounds", "18",
        "--json", "--observers", "region_adoption",
    ]) == 0
    document = json.loads(capsys.readouterr().out)
    report = document["reports"]["region_adoption"]
    assert len(report["body"]["series"]["adoption"]["rounds"]) == 18
