"""Measurement database semantics."""

from __future__ import annotations

import pytest

from repro.errors import MonitorError
from repro.monitor.database import (
    DnsObservation,
    DownloadObservation,
    MeasurementDatabase,
    PathObservation,
)
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def download(site_id, round_idx, family, speed, converged=True):
    return DownloadObservation(
        site_id=site_id,
        round_idx=round_idx,
        family=family,
        n_samples=5,
        mean_speed=speed,
        ci_half_width=1.0,
        converged=converged,
        page_bytes=1000,
        timestamp=0.0,
    )


def path(site_id, round_idx, family, as_path):
    return PathObservation(
        site_id=site_id,
        round_idx=round_idx,
        family=family,
        dest_asn=as_path[-1],
        as_path=as_path,
    )


@pytest.fixture()
def db() -> MeasurementDatabase:
    return MeasurementDatabase(vantage_name="T")


class TestDns:
    def test_counters_accumulate(self, db):
        for sid, v6 in ((1, True), (2, False), (3, True)):
            db.add_dns(DnsObservation(sid, f"s{sid}", 0, True, v6))
        assert db.dns_counts[0] == (3, 3, 2)
        assert db.v6_reachability(0) == pytest.approx(2 / 3)

    def test_only_dual_stack_rows_are_retained(self, db):
        db.add_dns(DnsObservation(1, "s1", 0, True, True))
        db.add_dns(DnsObservation(2, "s2", 0, True, False))
        assert 1 in db.dns and 2 not in db.dns

    def test_unlisted_queries_do_not_count_for_reachability(self, db):
        db.add_dns(DnsObservation(1, "s1", 0, True, True, listed=False))
        assert db.v6_reachability(0) == 0.0
        assert 1 in db.dns  # still retained as a dual-stack observation

    def test_no_data_reachability_is_zero(self, db):
        assert db.v6_reachability(5) == 0.0


class TestDownloads:
    def test_speeds_in_round_order(self, db):
        db.add_download(download(1, 0, V4, 10.0))
        db.add_download(download(1, 2, V4, 12.0))
        assert db.speeds(1, V4) == [10.0, 12.0]
        assert db.download_rounds(1, V4) == [0, 2]
        assert db.sample_count(1, V4) == 2

    def test_unconverged_rounds_excluded(self, db):
        db.add_download(download(1, 0, V4, 10.0))
        db.add_download(download(1, 1, V4, 99.0, converged=False))
        assert db.speeds(1, V4) == [10.0]

    def test_out_of_order_insert_rejected(self, db):
        db.add_download(download(1, 3, V4, 10.0))
        with pytest.raises(MonitorError):
            db.add_download(download(1, 3, V4, 10.0))
        with pytest.raises(MonitorError):
            db.add_download(download(1, 1, V4, 10.0))

    def test_dual_stack_sites(self, db):
        db.add_download(download(1, 0, V4, 10.0))
        db.add_download(download(1, 0, V6, 10.0))
        db.add_download(download(2, 0, V4, 10.0))
        assert db.dual_stack_sites() == [1]

    def test_len_counts_downloads(self, db):
        db.add_download(download(1, 0, V4, 10.0))
        db.add_download(download(1, 0, V6, 10.0))
        assert len(db) == 2


class TestPaths:
    def test_modal_path_wins(self, db):
        db.add_path(path(1, 0, V6, (1, 2, 3)))
        db.add_path(path(1, 1, V6, (1, 4, 3)))
        db.add_path(path(1, 2, V6, (1, 2, 3)))
        assert db.as_path(1, V6) == (1, 2, 3)

    def test_tie_prefers_latest(self, db):
        db.add_path(path(1, 0, V6, (1, 2, 3)))
        db.add_path(path(1, 1, V6, (1, 4, 3)))
        assert db.as_path(1, V6) == (1, 4, 3)

    def test_path_change_rounds(self, db):
        db.add_path(path(1, 0, V6, (1, 2, 3)))
        db.add_path(path(1, 1, V6, (1, 2, 3)))
        db.add_path(path(1, 2, V6, (1, 4, 3)))
        assert db.path_change_rounds(1, V6) == [2]

    def test_no_path_change(self, db):
        db.add_path(path(1, 0, V6, (1, 2, 3)))
        db.add_path(path(1, 1, V6, (1, 2, 3)))
        assert db.path_change_rounds(1, V6) == []
        assert db.path_change_rounds(1, V4) == []

    def test_dest_asn_uses_latest(self, db):
        db.add_path(path(1, 0, V6, (1, 2, 3)))
        db.add_path(path(1, 1, V6, (1, 4, 9)))
        assert db.dest_asn(1, V6) == 9

    def test_missing_site(self, db):
        assert db.as_path(99, V6) is None
        assert db.dest_asn(99, V6) is None


class TestPopulationQueries:
    def test_destination_ases(self, db):
        db.add_path(path(1, 0, V4, (1, 2, 3)))
        db.add_path(path(2, 0, V4, (1, 2, 5)))
        assert db.destination_ases(V4) == {3, 5}

    def test_ases_crossed_excludes_vantage(self, db):
        db.add_path(path(1, 0, V4, (1, 2, 3)))
        db.add_path(path(2, 0, V4, (1, 4, 5)))
        assert db.ases_crossed(V4) == {2, 3, 4, 5}


class TestSerialization:
    def full_db(self):
        from repro.monitor.database import DnsObservation, PageCheck

        db = MeasurementDatabase(vantage_name="T")
        db.add_dns(DnsObservation(1, "s1", 0, True, True))
        db.add_dns(DnsObservation(2, "s2", 0, True, False))
        db.add_dns(DnsObservation(1, "s1", 1, True, True, listed=False))
        db.add_page_check(PageCheck(1, 0, 1000, 1000, True))
        for family in (V4, V6):
            for round_idx in (0, 1, 2):
                db.add_download(download(1, round_idx, family, 100.0 + round_idx))
        db.add_path(path(1, 0, V4, (10, 20, 30)))
        db.add_path(path(1, 1, V4, (10, 25, 30)))
        db.add_path(path(1, 0, V6, (10, 40, 30)))
        return db

    def test_round_trip_equality(self):
        db = self.full_db()
        rebuilt = MeasurementDatabase.from_dict(db.to_dict())
        assert rebuilt == db
        assert rebuilt.to_dict() == db.to_dict()

    def test_round_trip_is_json_safe(self):
        import json

        db = self.full_db()
        over_the_wire = json.loads(json.dumps(db.to_dict()))
        assert MeasurementDatabase.from_dict(over_the_wire) == db

    def test_unsupported_format_rejected(self):
        data = self.full_db().to_dict()
        data["format"] = 999
        with pytest.raises(MonitorError):
            MeasurementDatabase.from_dict(data)

    def test_out_of_order_insert_still_rejected_after_load(self):
        rebuilt = MeasurementDatabase.from_dict(self.full_db().to_dict())
        with pytest.raises(MonitorError):
            rebuilt.add_download(download(1, 1, V4, 50.0))

    def test_pickle_round_trip_is_the_wire_form(self):
        import pickle

        from repro.monitor.aggregate import CentralRepository
        from repro.monitor.vantage import VantageKind, VantagePoint

        db = self.full_db()
        rebuilt = pickle.loads(pickle.dumps(db, pickle.HIGHEST_PROTOCOL))
        assert rebuilt.to_dict() == db.to_dict()
        vantage = VantagePoint(
            name="T", location="X", asn=10, start_round=0,
            as_path_available=True, white_listed=False,
            kind=VantageKind.ACADEMIC,
        )
        digests = []
        for database in (db, rebuilt):
            repository = CentralRepository()
            repository.add(vantage, database)
            digests.append(repository.content_digest())
        assert digests[0] == digests[1]

    def test_dns_counts_survive_verbatim(self):
        db = self.full_db()
        rebuilt = MeasurementDatabase.from_dict(db.to_dict())
        assert rebuilt.dns_counts == db.dns_counts
        assert rebuilt.v6_reachability(0) == db.v6_reachability(0)


class TestDualStackMemoization:
    def test_cache_is_invalidated_by_writes(self, db):
        db.add_download(download(1, 0, V4, 100.0))
        db.add_download(download(1, 0, V6, 90.0))
        assert db.dual_stack_sites() == [1]
        # memoized result must not leak staleness past a new write
        db.add_download(download(2, 0, V4, 100.0))
        db.add_download(download(2, 0, V6, 90.0))
        assert db.dual_stack_sites() == [1, 2]

    def test_repeated_queries_reuse_cache(self, db):
        db.add_download(download(1, 0, V4, 100.0))
        db.add_download(download(1, 0, V6, 90.0))
        first = db.dual_stack_sites()
        assert db._dual_stack_cache is not None
        second = db.dual_stack_sites()
        assert first == second
        # callers get copies, not the cache itself
        first.append(999)
        assert db.dual_stack_sites() == [1]
