"""CSV/JSON export of measurement data."""

from __future__ import annotations

import csv
import json

import pytest

from repro.data.columnar import ColumnarDatabase
from repro.data.series import converged_speeds
from repro.errors import MonitorError
from repro.monitor.aggregate import CentralRepository
from repro.monitor.database import (
    DnsObservation,
    DownloadObservation,
    MeasurementDatabase,
    PageCheck,
    PathObservation,
)
from repro.monitor.export import (
    export_database,
    export_repository,
)
from repro.monitor.vantage import VantageKind, VantagePoint
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


@pytest.fixture()
def db() -> ColumnarDatabase:
    db = MeasurementDatabase(vantage_name="X")
    for round_idx in range(3):
        db.add_dns_round(
            round_idx, (1, 1, 1), [DnsObservation(1, "s1", round_idx, True, True)]
        )
        db.add_downloads([
            DownloadObservation(1, round_idx, V4, 5, 10.5, 0.4, True, 900, 1.0),
            DownloadObservation(1, round_idx, V6, 5, 9.5, 0.3, True, 900, 1.0),
        ])
        db.add_paths([PathObservation(1, round_idx, V4, 3, (1, 2, 3))])
    db.add_page_checks([PageCheck(1, 0, 900, 900, True)])
    return db.freeze()


class TestExportDatabase:
    def test_all_tables_written(self, db, tmp_path):
        counts = export_database(db, tmp_path / "X")
        assert counts == {
            "downloads": 6,
            "paths": 3,
            "dns": 3,
            "page_checks": 1,
        }
        for name in ("downloads", "paths", "dns", "page_checks"):
            assert (tmp_path / "X" / f"{name}.csv").exists()

    def test_paths_csv_format(self, db, tmp_path):
        export_database(db, tmp_path / "X")
        with (tmp_path / "X" / "paths.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["as_path"] == "1 2 3"
        assert rows[0]["dest_asn"] == "3"

    def test_downloads_roundtrip(self, db, tmp_path):
        export_database(db, tmp_path / "X")
        path = tmp_path / "X" / "downloads.csv"
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        for family in (V4, V6):
            speeds = [
                float(row["mean_speed_kbps"])
                for row in rows
                if row["site_id"] == "1" and row["family"] == family.value
            ]
            assert speeds == converged_speeds(db, 1, family)


class TestExportRepository:
    def test_manifest_and_tree(self, db, tmp_path):
        repo = CentralRepository()
        repo.add(
            VantagePoint(
                name="X",
                location="L",
                asn=9,
                start_round=0,
                as_path_available=True,
                white_listed=False,
                kind=VantageKind.ACADEMIC,
            ),
            db,
        )
        manifest_path = export_repository(repo, tmp_path / "out")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 1
        assert manifest["vantage_points"]["X"]["asn"] == 9
        assert manifest["vantage_points"]["X"]["tables"]["downloads"] == 6
        assert (tmp_path / "out" / "X" / "downloads.csv").exists()

    def test_empty_repository_rejected(self, tmp_path):
        with pytest.raises(MonitorError):
            export_repository(CentralRepository(), tmp_path / "out")


class TestEndToEndExport:
    def test_small_campaign_exports(self, small_campaign, tmp_path):
        manifest_path = export_repository(
            small_campaign.repository, tmp_path / "data"
        )
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["vantage_points"]) == 6
        penn_downloads = tmp_path / "data" / "Penn" / "downloads.csv"
        with penn_downloads.open() as handle:
            n_rows = sum(1 for _ in handle) - 1
        assert n_rows == small_campaign.repository.database("Penn").table(
            "downloads"
        ).n_rows
