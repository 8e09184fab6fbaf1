"""On-disk campaign store semantics."""

from __future__ import annotations

import hashlib
import json
import sys
import threading

import pytest

from repro.config import small_config
from repro.engine.store import CampaignStore, config_digest
from repro.monitor.aggregate import CentralRepository
from repro.monitor.database import (
    DnsObservation,
    DownloadObservation,
    MeasurementDatabase,
    PathObservation,
)
from repro.monitor.tool import RoundReport
from repro.monitor.vantage import VantageKind, VantagePoint
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def tiny_database(*dns_rounds) -> MeasurementDatabase:
    """The tiny campaign's write buffer; ``dns_rounds`` adds one more
    dual-stack DNS row per (round, site id)."""
    db = MeasurementDatabase(vantage_name="T")
    db.add_dns_round(0, (2, 2, 1), [DnsObservation(1, "s1", 0, True, True)])
    for round_idx, site_id in dns_rounds:
        db.add_dns_round(
            round_idx, (0, 0, 0),
            [DnsObservation(site_id, f"s{site_id}", round_idx, True, True)],
        )
    for family in (V4, V6):
        db.add_downloads([
            DownloadObservation(
                site_id=1,
                round_idx=round_idx,
                family=family,
                n_samples=5,
                mean_speed=100.0 + round_idx,
                ci_half_width=1.5,
                converged=True,
                page_bytes=1000,
                timestamp=float(round_idx),
            )
            for round_idx in (0, 1)
        ])
    db.add_paths([PathObservation(1, 0, V4, dest_asn=30, as_path=(10, 20, 30))])
    return db


def tiny_campaign(*dns_rounds):
    db = tiny_database(*dns_rounds).freeze()
    vantage = VantagePoint(
        name="T",
        location="X",
        asn=10,
        start_round=0,
        as_path_available=True,
        white_listed=False,
        kind=VantageKind.ACADEMIC,
    )
    repository = CentralRepository()
    repository.add(vantage, db)
    reports = {
        "T": [RoundReport(0, 2, 2, 1, 1, 12.5), RoundReport(1, 2, 0, 1, 1, 11.0)]
    }
    return repository, reports


def _repository_of(columnar) -> CentralRepository:
    repository = CentralRepository()
    for name, vantage in columnar.vantages.items():
        repository.add(VantagePoint.from_dict(vantage), columnar.databases[name])
    return repository


class TestConfigDigest:
    def test_stable_across_calls(self):
        cfg = small_config(seed=3)
        assert config_digest(cfg) == config_digest(small_config(seed=3))

    def test_differs_by_seed_and_kind(self):
        cfg = small_config(seed=3)
        assert config_digest(cfg) != config_digest(small_config(seed=4))
        assert config_digest(cfg, kind="weekly") != config_digest(cfg, kind="w6d")


class TestCampaignStore:
    def test_miss_on_empty_store(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.load(small_config(seed=3)) is None

    def test_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        stored = store.load(cfg)
        assert stored is not None
        assert stored.repository.content_digest() == repository.content_digest()
        assert stored.reports == reports
        assert stored.world is None  # none was saved

    def test_world_pickle_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports, world={"marker": 42})
        stored = store.load(cfg)
        assert stored.world == {"marker": 42}

    def test_kinds_are_separate_entries(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports, kind="weekly")
        assert store.load(cfg, kind="w6d") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.bin").write_bytes(b"\x00")
        assert store.load(cfg) is None

    def test_meta_records_repository_digest(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
        assert meta["repository_digest"] == repository.content_digest()
        assert meta["seed"] == cfg.seed


def _rewrite_bin_meta(entry, mutate) -> None:
    """Rewrite ``columnar.bin``'s metadata with a valid sha256, so the
    decoder's structural checks (not the digest) must catch ``mutate``."""
    from repro.data.columnar import _BINARY_HEADER

    path = entry / "columnar.bin"
    data = path.read_bytes()
    magic, version, meta_length, _ = _BINARY_HEADER.unpack_from(data)
    start = _BINARY_HEADER.size
    meta = json.loads(data[start : start + meta_length])
    mutate(meta)
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    body = data[start + meta_length :]
    digest = hashlib.sha256(meta_bytes + body).digest()
    path.write_bytes(
        _BINARY_HEADER.pack(magic, version, len(meta_bytes), digest)
        + meta_bytes
        + body
    )


def _downloads_meta(meta) -> dict:
    (database,) = meta["databases"]
    return next(t for t in database["tables"] if t["name"] == "downloads")


class TestCorruptedEntryRobustness:
    """Any unreadable cache entry is a miss with a warning — never a crash —
    and the next save replaces it."""

    @staticmethod
    def _saved_entry(tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        return store, cfg, repository, reports, entry

    def _assert_miss_then_recompute(self, store, cfg, repository, reports):
        digest = config_digest(cfg)
        assert store.load(cfg) is None
        assert store.load_repository(cfg) is None
        # "Recompute" in the CLI means re-running and re-saving; the
        # rewritten entry must be fully usable again.
        store.save(cfg, repository, reports)
        stored = store.load(cfg)
        assert stored is not None
        assert stored.repository.content_digest() == repository.content_digest()
        assert store.load_columnar_entry(digest) is not None

    def test_truncated_columnar_bin(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        payload = (entry / "columnar.bin").read_bytes()
        (entry / "columnar.bin").write_bytes(payload[: len(payload) // 2])
        assert store.load_columnar_entry(config_digest(cfg)) is None
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_byte_flipped_columnar_bin(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        payload = bytearray((entry / "columnar.bin").read_bytes())
        payload[-1] ^= 0xFF
        (entry / "columnar.bin").write_bytes(bytes(payload))
        assert store.load_columnar_entry(config_digest(cfg)) is None
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_missing_columnar_bin(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        (entry / "columnar.bin").unlink()
        assert store.load_columnar_entry(config_digest(cfg)) is None
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_missing_reports_key(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        (entry / "reports.json").write_text("{}", encoding="utf-8")
        assert store.load(cfg) is None
        store.save(cfg, repository, reports)
        assert store.load(cfg).reports == reports

    def test_malformed_table_rows(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)

        def shrink(meta):
            column = _downloads_meta(meta)["columns"][0]
            column["nbytes"] -= 8

        _rewrite_bin_meta(entry, shrink)
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_unsupported_database_format(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        _rewrite_bin_meta(entry, lambda meta: meta.update(format=99))
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_out_of_order_rows_violate_invariant(self, tmp_path):
        from repro.data.columnar import (
            ColumnarRepository,
            ColumnarTable,
            write_columnar_binary,
        )

        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        # a well-formed binary (valid digest) whose download rows are out
        # of round order: rebuilding the database rejects it
        columnar = ColumnarRepository.from_repository(tiny_campaign()[0])
        cdb = columnar.databases["T"]
        rows = cdb.tables["downloads"].rows()
        rows.reverse()
        cdb.tables["downloads"] = ColumnarTable.from_rows("downloads", rows)
        write_columnar_binary(entry / "columnar.bin", columnar)
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_corruption_is_logged_as_warning(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        (entry / "columnar.bin").write_bytes(b"RPRCOL garbage")
        with caplog.at_level("WARNING", logger="repro.engine.store"):
            assert store.load(cfg) is None
        assert any(
            "unreadable store entry" in record.message
            for record in caplog.records
        )


class TestColumnarArtifact:
    """columnar.bin is the entry's only copy of the measurement data."""

    def test_save_writes_only_the_binary_artifact(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        assert sorted(p.name for p in entry.iterdir()) == [
            "columnar.bin", "meta.json", "reports.json",
        ]
        entry = store.save(cfg, repository, reports, kind="w6d", world={"w": 1})
        assert sorted(p.name for p in entry.iterdir()) == [
            "columnar.bin", "meta.json", "reports.json", "world.pkl",
        ]

    def test_load_repository_without_world(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports, world={"marker": 42})
        loaded = store.load_repository(cfg)
        assert loaded is not None
        assert loaded.content_digest() == repository.content_digest()
        assert store.load_repository(small_config(seed=4)) is None

    def test_load_columnar_entry(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        digest = config_digest(cfg)
        meta, columnar = store.load_columnar_entry(digest)
        assert meta["digest"] == digest
        assert _repository_of(columnar).content_digest() == (
            repository.content_digest()
        )
        assert store.load_columnar_entry("deadbeef") is None

    def test_save_writes_binary_artifact(self, tmp_path):
        from repro.data.columnar import BINARY_MAGIC, load_columnar_binary

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        binary_path = entry / "columnar.bin"
        assert binary_path.read_bytes().startswith(BINARY_MAGIC)
        columnar = load_columnar_binary(binary_path)
        assert _repository_of(columnar).content_digest() == (
            repository.content_digest()
        )

    def test_binary_preferred_on_load(self, tmp_path):
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        loads = metrics.counter("engine.store.bin_loads")
        before = loads.value
        # every load path is served from columnar.bin
        assert store.load_columnar_entry(config_digest(cfg)) is not None
        assert store.load_repository(cfg) is not None
        stored = store.load(cfg)
        assert loads.value == before + 3
        assert stored.repository.content_digest() == repository.content_digest()

    def test_corrupt_binary_is_a_miss(self, tmp_path):
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.bin").write_bytes(b"RPRCOL garbage")
        loads = metrics.counter("engine.store.bin_loads")
        misses = metrics.counter("engine.store.misses")
        before_loads, before_misses = loads.value, misses.value
        assert store.load_columnar_entry(config_digest(cfg)) is None
        assert loads.value == before_loads
        assert misses.value == before_misses + 1

    def test_corrupt_columnar_artifacts_are_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.bin").write_bytes(b"\x00")
        assert store.load_columnar_entry(config_digest(cfg)) is None
        assert store.load_repository(cfg) is None
        assert store.load(cfg) is None

    def test_loaded_databases_memoise_their_columns(self, tmp_path):
        from repro.data.columnar import LazyColumnarDatabase
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        encodes = metrics.counter("data.columnar.encodes")
        before = encodes.value
        loaded = store.load_repository(cfg)
        view = loaded.database("T")
        # the decoded columns themselves: no transpose, no row objects
        assert isinstance(view, LazyColumnarDatabase)
        assert encodes.value == before
        assert view.row_counts() == repository.database("T").row_counts()


#: content digest of :func:`tiny_campaign`'s repository.
TINY_DIGEST = "3dc4d118dc3bb5a8f0bb17b0d933d64fe1c4f952b04b1a8faa6c69f0e38436da"


class TestAtomicSave:
    """A reader sees a complete entry or a miss, never half an entry."""

    @staticmethod
    def _partial_entries(store) -> list:
        campaigns = store.root / "campaigns"
        if not campaigns.is_dir():
            return []
        return [p for p in campaigns.iterdir() if not (p / "meta.json").exists()]

    @staticmethod
    def _fail_after_binary(monkeypatch):
        from repro.data import columnar

        write = columnar.write_columnar_binary

        def write_then_fail(path, repository):
            write(path, repository)
            raise OSError("disk full after columnar.bin")

        monkeypatch.setattr(columnar, "write_columnar_binary", write_then_fail)

    def test_failed_first_save_is_a_miss(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        self._fail_after_binary(monkeypatch)
        with pytest.raises(OSError):
            store.save(cfg, repository, reports)
        assert store.load(cfg) is None
        assert self._partial_entries(store) == []
        assert list((tmp_path / "staging").iterdir()) == []

    def test_failed_save_keeps_the_previous_entry(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        previous, reports = tiny_campaign((1, 3))
        store.save(cfg, previous, reports)
        self._fail_after_binary(monkeypatch)
        with pytest.raises(OSError):
            store.save(cfg, *tiny_campaign())
        stored = store.load(cfg)
        assert stored.repository.content_digest() == previous.content_digest()
        assert previous.content_digest() != TINY_DIGEST
        assert self._partial_entries(store) == []
        assert list((tmp_path / "staging").iterdir()) == []

    def test_concurrent_saves_leave_one_entry(self, tmp_path):
        # more savers than cores, switching threads as often as possible
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                barrier = threading.Barrier(4)
                errors = []

                def save():
                    repository, reports = tiny_campaign()
                    barrier.wait()
                    try:
                        store.save(cfg, repository, reports)
                    except Exception as exc:  # surfaced by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=save) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert errors == []
                assert [e.digest for e in store.entries()] == [config_digest(cfg)]
                assert list((tmp_path / "campaigns").iterdir()) == [
                    store.entry_dir(config_digest(cfg))
                ]
                assert list((tmp_path / "staging").iterdir()) == []
                stored = store.load(cfg)
                assert stored.repository.content_digest() == TINY_DIGEST
        finally:
            sys.setswitchinterval(interval)

    def test_stale_staging_directory_is_never_listed(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        # a save killed before publishing leaves a complete-looking
        # directory behind in the staging area
        stale = tmp_path / "staging" / "stale"
        stale.mkdir()
        for path in entry.iterdir():
            (stale / path.name).write_bytes(path.read_bytes())
        assert [e.path for e in store.entries()] == [entry]
        store.save(cfg, repository, reports)
        assert [e.path for e in store.entries()] == [entry]

    def test_observer_reports_leave_no_temporary_files(self, tmp_path):
        from repro.observers import ObserverReport

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        digest = config_digest(cfg)
        report = ObserverReport(
            name="speed_parity", version=1, campaign_digest=digest,
            body={"summary": {"x": 1.0}, "series": {}},
        )
        store.save_observer_reports(digest, {"speed_parity": report})
        store.save_observer_reports(digest, {"speed_parity": report})
        assert [p.name for p in store.observers_dir(digest).iterdir()] == [
            "speed_parity.json"
        ]
        assert store.load_observer_report(digest, "speed_parity") == (
            report.canonical_bytes()
        )


class TestColumnarMemo:
    def test_analysis_after_save_reuses_the_saved_transposes(self, tmp_path):
        from repro.core.campaign import run_campaign
        from repro.core.world import build_world
        from repro.experiments.scenario import build_contexts
        from repro.obs import metrics

        cfg = small_config(seed=11, scale=0.3)
        campaign = run_campaign(build_world(cfg))
        encodes = metrics.counter("data.columnar.encodes")
        before = encodes.value
        CampaignStore(tmp_path).save(cfg, campaign.repository, campaign.reports)
        build_contexts(cfg, campaign)
        # The shards froze each database once; the save and the analysis
        # read those columns without transposing again.
        assert encodes.value == before


class TestObserverReports:
    def test_round_trip(self, tmp_path):
        from repro.observers import ObserverReport

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        digest = config_digest(cfg)
        assert store.list_observer_reports(digest) == []
        assert store.load_observer_report(digest, "speed_parity") is None
        observer_reports = {
            name: ObserverReport(
                name=name,
                version=1,
                campaign_digest=digest,
                body={"summary": {"x": 1.0}, "series": {}},
            )
            for name in ("speed_parity", "hop_inflation")
        }
        store.save_observer_reports(digest, observer_reports)
        assert store.list_observer_reports(digest) == [
            "hop_inflation", "speed_parity"
        ]
        raw = store.load_observer_report(digest, "speed_parity")
        assert raw == observer_reports["speed_parity"].canonical_bytes()
        restored = ObserverReport.from_payload(json.loads(raw))
        assert restored == observer_reports["speed_parity"]
