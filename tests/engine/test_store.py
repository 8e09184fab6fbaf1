"""On-disk campaign store semantics."""

from __future__ import annotations

import json

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


def tiny_campaign():
    db = MeasurementDatabase(vantage_name="T")
    db.add_dns(DnsObservation(1, "s1", 0, True, True))
    db.add_dns(DnsObservation(2, "s2", 0, True, False))
    for family in (V4, V6):
        for round_idx in (0, 1):
            db.add_download(
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
            )
    db.add_path(PathObservation(1, 0, V4, dest_asn=30, as_path=(10, 20, 30)))
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
        assert not store.has(small_config(seed=3))

    def test_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        assert store.has(cfg)

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
        (entry / "repository.json").write_text("{not json", encoding="utf-8")
        assert store.load(cfg) is None

    def test_meta_records_repository_digest(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
        assert meta["repository_digest"] == repository.content_digest()
        assert meta["seed"] == cfg.seed


class TestCorruptedEntryRobustness:
    """Any unreadable cache entry is a miss with a warning — never a crash."""

    @staticmethod
    def _saved_entry(tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        return store, cfg, repository, reports, entry

    def _assert_miss_then_recompute(self, store, cfg, repository, reports):
        assert store.load(cfg) is None
        # "Recompute" in the CLI means re-running and re-saving; the
        # rewritten entry must be fully usable again.
        store.save(cfg, repository, reports)
        stored = store.load(cfg)
        assert stored is not None
        assert stored.repository.content_digest() == repository.content_digest()

    def test_truncated_repository_json(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        payload = (entry / "repository.json").read_text(encoding="utf-8")
        (entry / "repository.json").write_text(
            payload[: len(payload) // 2], encoding="utf-8"
        )
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_missing_reports_key(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        (entry / "reports.json").write_text("{}", encoding="utf-8")
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_malformed_table_rows(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        data = json.loads((entry / "repository.json").read_text(encoding="utf-8"))
        vantage_name = next(iter(data["databases"]))
        data["databases"][vantage_name]["downloads"] = [17]
        (entry / "repository.json").write_text(json.dumps(data), encoding="utf-8")
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_unsupported_database_format(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        data = json.loads((entry / "repository.json").read_text(encoding="utf-8"))
        vantage_name = next(iter(data["databases"]))
        data["databases"][vantage_name]["format"] = 99
        (entry / "repository.json").write_text(json.dumps(data), encoding="utf-8")
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_out_of_order_rows_violate_invariant(self, tmp_path):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        data = json.loads((entry / "repository.json").read_text(encoding="utf-8"))
        vantage_name = next(iter(data["databases"]))
        rows = data["databases"][vantage_name]["downloads"]
        rows.reverse()
        (entry / "repository.json").write_text(json.dumps(data), encoding="utf-8")
        self._assert_miss_then_recompute(store, cfg, repository, reports)

    def test_corruption_is_logged_as_warning(self, tmp_path, caplog):
        store, cfg, repository, reports, entry = self._saved_entry(tmp_path)
        (entry / "repository.json").write_text("{not json", encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.engine.store"):
            assert store.load(cfg) is None
        assert any(
            "unreadable store entry" in record.message
            for record in caplog.records
        )


class TestColumnarArtifact:
    """columnar.json and the no-world load paths."""

    def test_save_writes_columnar_json(self, tmp_path):
        from repro.data.columnar import ColumnarRepository

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        payload = json.loads((entry / "columnar.json").read_text(encoding="utf-8"))
        rebuilt = ColumnarRepository.from_payload(payload).to_repository()
        assert rebuilt.content_digest() == repository.content_digest()

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
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )
        assert store.load_columnar_entry("deadbeef") is None

    def test_load_columnar_entry_derives_from_legacy_rows(self, tmp_path):
        # entries written before the columnar layer lack columnar.json
        # and columnar.bin; loading transposes repository.json on the fly
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.json").unlink()
        (entry / "columnar.bin").unlink()
        loaded = store.load_columnar_entry(config_digest(cfg))
        assert loaded is not None
        _, columnar = loaded
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )

    def test_save_writes_binary_artifact(self, tmp_path):
        from repro.data.columnar import BINARY_MAGIC, load_columnar_binary

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        binary_path = entry / "columnar.bin"
        assert binary_path.read_bytes().startswith(BINARY_MAGIC)
        columnar = load_columnar_binary(binary_path)
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )

    def test_binary_preferred_on_load(self, tmp_path):
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        # even with a corrupt columnar.json the binary serves the load
        (entry / "columnar.json").write_text("{not json", encoding="utf-8")
        before = metrics.counter("engine.store.bin_loads").value
        loaded = store.load_columnar_entry(config_digest(cfg))
        assert loaded is not None
        assert metrics.counter("engine.store.bin_loads").value == before + 1
        _, columnar = loaded
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )

    def test_corrupt_binary_falls_back_to_json(self, tmp_path):
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.bin").write_bytes(b"RPRCOL garbage")
        before = metrics.counter("engine.store.bin_fallbacks").value
        loaded = store.load_columnar_entry(config_digest(cfg))
        assert loaded is not None
        assert metrics.counter("engine.store.bin_fallbacks").value == before + 1
        _, columnar = loaded
        assert columnar.to_repository().content_digest() == (
            repository.content_digest()
        )

    def test_prefer_binary_false_forces_json_path(self, tmp_path):
        from repro.obs import metrics

        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        store.save(cfg, repository, reports)
        before = metrics.counter("engine.store.bin_loads").value
        loaded = store.load_columnar_entry(config_digest(cfg), prefer_binary=False)
        assert loaded is not None
        assert metrics.counter("engine.store.bin_loads").value == before

    def test_corrupt_columnar_artifacts_are_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        cfg = small_config(seed=3)
        repository, reports = tiny_campaign()
        entry = store.save(cfg, repository, reports)
        (entry / "columnar.json").write_text("{not json", encoding="utf-8")
        (entry / "columnar.bin").write_bytes(b"\x00")
        (entry / "repository.json").write_text("{not json", encoding="utf-8")
        assert store.load_columnar_entry(config_digest(cfg)) is None


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
        # One transpose per database: the save's, reused by the analysis.
        assert encodes.value - before == len(campaign.repository.vantage_names)


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
