"""The central repository."""

from __future__ import annotations

import pytest

from repro.data.columnar import ColumnarDatabase
from repro.errors import MonitorError
from repro.monitor.aggregate import CentralRepository
from repro.monitor.database import DownloadObservation, MeasurementDatabase
from repro.monitor.vantage import VantageKind, VantagePoint
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def vantage(name: str, as_path=True) -> VantagePoint:
    return VantagePoint(
        name=name,
        location="L",
        asn=5,
        start_round=0,
        as_path_available=as_path,
        white_listed=False,
        kind=VantageKind.ACADEMIC,
    )


def db_with_site(name: str, *site_ids: int) -> ColumnarDatabase:
    db = MeasurementDatabase(vantage_name=name)
    db.add_downloads([
        DownloadObservation(
            site_id=site_id,
            round_idx=0,
            family=family,
            n_samples=5,
            mean_speed=10.0,
            ci_half_width=0.5,
            converged=True,
            page_bytes=100,
            timestamp=0.0,
        )
        for site_id in site_ids
        for family in (V4, V6)
    ])
    return db.freeze()


class TestCentralRepository:
    def test_add_and_query(self):
        repo = CentralRepository()
        vp = vantage("A")
        repo.add(vp, db_with_site("A", 1))
        assert repo.vantage("A") is vp
        assert repo.database("A").vantage_name == "A"
        assert len(repo) == 1

    def test_duplicate_vantage_rejected(self):
        repo = CentralRepository()
        repo.add(vantage("A"), db_with_site("A", 1))
        with pytest.raises(MonitorError):
            repo.add(vantage("A"), db_with_site("A", 2))

    def test_mismatched_database_rejected(self):
        repo = CentralRepository()
        with pytest.raises(MonitorError):
            repo.add(vantage("A"), db_with_site("B", 1))

    def test_unknown_vantage_rejected(self):
        repo = CentralRepository()
        with pytest.raises(MonitorError):
            repo.vantage("ghost")
        with pytest.raises(MonitorError):
            repo.database("ghost")

    def test_analysis_vantages_filter(self):
        repo = CentralRepository()
        repo.add(vantage("A", as_path=True), db_with_site("A", 1))
        repo.add(vantage("B", as_path=False), db_with_site("B", 1))
        assert [v.name for v in repo.analysis_vantages()] == ["A"]
        assert [v.name for v, _ in repo.analysis_items()] == ["A"]

    def test_common_dual_stack_sites(self):
        repo = CentralRepository()
        repo.add(vantage("A"), db_with_site("A", 1, 2))
        repo.add(vantage("B"), db_with_site("B", 1))
        assert repo.common_dual_stack_sites() == {1}

    def test_common_sites_empty_repo(self):
        assert CentralRepository().common_dual_stack_sites() == set()
