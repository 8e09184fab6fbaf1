"""Measurement database semantics: the write buffer and its frozen tables."""

from __future__ import annotations

import pytest

from repro.data.columnar import (
    ColumnarRepository,
    check_round_order,
    decode_columnar_binary,
    encode_columnar_binary,
)
from repro.data.series import (
    ases_crossed,
    converged_speeds,
    dest_asn,
    destination_ases,
    download_rounds,
    dual_stack_sites,
    modal_as_path,
    path_change_rounds,
    series_index,
    v6_reachability,
)
from repro.errors import DataError, MonitorError
from repro.monitor.aggregate import CentralRepository
from repro.monitor.database import (
    DnsObservation,
    DownloadObservation,
    MeasurementDatabase,
    PageCheck,
    PathObservation,
)
from repro.monitor.vantage import VantageKind, VantagePoint
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


def dns_round(db, round_idx, observations):
    """Land one round's DNS observations the way the round plane does:
    listed queries as tallies, dual-stack ones as rows."""
    listed = [o for o in observations if o.listed]
    db.add_dns_round(
        round_idx,
        (len(listed), sum(o.has_v4 for o in listed), sum(o.has_v6 for o in listed)),
        [o for o in observations if o.has_v4 and o.has_v6],
    )


def vantage(name="T"):
    return VantagePoint(
        name=name, location="X", asn=10, start_round=0,
        as_path_available=True, white_listed=False,
        kind=VantageKind.ACADEMIC,
    )


def digest_of(cdb):
    repository = CentralRepository()
    repository.add(vantage(cdb.vantage_name), cdb)
    return repository.content_digest()


def bin_round_trip(cdb):
    columnar = ColumnarRepository(
        vantages={cdb.vantage_name: vantage(cdb.vantage_name).to_dict()},
        databases={cdb.vantage_name: cdb},
    )
    head, segments, _ = encode_columnar_binary(columnar)
    decoded = decode_columnar_binary(head + b"".join(bytes(s) for s in segments))
    return decoded.databases[cdb.vantage_name]


@pytest.fixture()
def db() -> MeasurementDatabase:
    return MeasurementDatabase(vantage_name="T")


class TestDns:
    def test_counters_accumulate(self, db):
        dns_round(db, 0, [
            DnsObservation(sid, f"s{sid}", 0, True, v6)
            for sid, v6 in ((1, True), (2, False), (3, True))
        ])
        assert db.dns_counts[0] == (3, 3, 2)
        assert v6_reachability(db.freeze(), 0) == pytest.approx(2 / 3)

    def test_only_dual_stack_rows_are_retained(self, db):
        dns_round(db, 0, [
            DnsObservation(1, "s1", 0, True, True),
            DnsObservation(2, "s2", 0, True, False),
        ])
        assert 1 in db.dns and 2 not in db.dns
        assert db.freeze().table("dns").column("site_id").values_list() == [1]

    def test_unlisted_queries_do_not_count_for_reachability(self, db):
        dns_round(db, 0, [DnsObservation(1, "s1", 0, True, True, listed=False)])
        assert v6_reachability(db.freeze(), 0) == 0.0
        assert 1 in db.dns  # still retained as a dual-stack observation

    def test_no_data_reachability_is_zero(self, db):
        assert v6_reachability(db.freeze(), 5) == 0.0


class TestDownloads:
    def test_speeds_in_round_order(self, db):
        db.add_downloads([download(1, 0, V4, 10.0), download(1, 2, V4, 12.0)])
        cdb = db.freeze()
        assert converged_speeds(cdb, 1, V4) == [10.0, 12.0]
        assert download_rounds(cdb, 1, V4) == [0, 2]

    def test_unconverged_rounds_excluded(self, db):
        db.add_downloads([
            download(1, 0, V4, 10.0),
            download(1, 1, V4, 99.0, converged=False),
        ])
        assert converged_speeds(db.freeze(), 1, V4) == [10.0]

    def test_out_of_order_insert_rejected(self, db):
        db.add_downloads([download(1, 3, V4, 10.0)])
        with pytest.raises(MonitorError):
            db.add_downloads([download(1, 3, V4, 10.0)])
        with pytest.raises(MonitorError):
            db.add_downloads([download(1, 1, V4, 10.0)])

    def test_dual_stack_sites(self, db):
        db.add_downloads([
            download(1, 0, V4, 10.0),
            download(1, 0, V6, 10.0),
            download(2, 0, V4, 10.0),
        ])
        assert dual_stack_sites(db.freeze()) == [1]

    def test_len_counts_downloads(self, db):
        db.add_downloads([download(1, 0, V4, 10.0), download(1, 0, V6, 10.0)])
        assert db.freeze().row_counts()["downloads"] == 2


class TestPaths:
    def test_modal_path_wins(self, db):
        db.add_paths([
            path(1, 0, V6, (1, 2, 3)),
            path(1, 1, V6, (1, 4, 3)),
            path(1, 2, V6, (1, 2, 3)),
        ])
        assert modal_as_path(db.freeze(), 1, V6) == (1, 2, 3)

    def test_tie_prefers_latest(self, db):
        db.add_paths([path(1, 0, V6, (1, 2, 3)), path(1, 1, V6, (1, 4, 3))])
        assert modal_as_path(db.freeze(), 1, V6) == (1, 4, 3)

    def test_path_change_rounds(self, db):
        db.add_paths([
            path(1, 0, V6, (1, 2, 3)),
            path(1, 1, V6, (1, 2, 3)),
            path(1, 2, V6, (1, 4, 3)),
        ])
        assert path_change_rounds(db.freeze(), 1, V6) == [2]

    def test_no_path_change(self, db):
        db.add_paths([path(1, 0, V6, (1, 2, 3)), path(1, 1, V6, (1, 2, 3))])
        cdb = db.freeze()
        assert path_change_rounds(cdb, 1, V6) == []
        assert path_change_rounds(cdb, 1, V4) == []

    def test_dest_asn_uses_latest(self, db):
        db.add_paths([path(1, 0, V6, (1, 2, 3)), path(1, 1, V6, (1, 4, 9))])
        assert dest_asn(db.freeze(), 1, V6) == 9

    def test_missing_site(self, db):
        cdb = db.freeze()
        assert modal_as_path(cdb, 99, V6) is None
        assert dest_asn(cdb, 99, V6) is None


class TestPopulationQueries:
    def test_destination_ases(self, db):
        db.add_paths([path(1, 0, V4, (1, 2, 3)), path(2, 0, V4, (1, 2, 5))])
        assert destination_ases(db.freeze(), V4) == {3, 5}

    def test_ases_crossed_excludes_vantage(self, db):
        db.add_paths([
            path(1, 0, V4, (1, 2, 3)),
            path(2, 0, V4, (1, 4, 5)),
            path(2, 0, V6, (1, 6, 5)),
        ])
        assert ases_crossed(db.freeze(), V4) == {2, 3, 4, 5}


class TestSerialization:
    """A frozen database survives ``columnar.bin`` and pickling unchanged."""

    def full_db(self):
        db = MeasurementDatabase(vantage_name="T")
        dns_round(db, 0, [
            DnsObservation(1, "s1", 0, True, True),
            DnsObservation(2, "s2", 0, True, False),
        ])
        dns_round(db, 1, [DnsObservation(1, "s1", 1, True, True, listed=False)])
        db.add_page_checks([PageCheck(1, 0, 1000, 1000, True)])
        for round_idx in (0, 1, 2):
            db.add_downloads([
                download(1, round_idx, family, 100.0 + round_idx)
                for family in (V4, V6)
            ])
        db.add_paths([
            path(1, 0, V4, (10, 20, 30)),
            path(1, 1, V4, (10, 25, 30)),
            path(1, 0, V6, (10, 40, 30)),
        ])
        return db

    def test_round_trip_equality(self):
        cdb = self.full_db().freeze()
        rebuilt = bin_round_trip(cdb)
        for name, table in cdb.tables.items():
            assert rebuilt.table(name).rows() == table.rows(), name
        assert digest_of(rebuilt) == digest_of(cdb)

    def test_round_trip_is_json_safe(self):
        import json

        from repro.data.columnar import iter_columnar_json

        cdb = self.full_db().freeze()
        columnar = ColumnarRepository(
            vantages={"T": vantage().to_dict()}, databases={"T": cdb}
        )
        text = "".join(iter_columnar_json(columnar))
        assert json.loads(text) == json.loads(json.dumps(columnar.to_payload()))

    def test_unsupported_format_rejected(self):
        cdb = self.full_db().freeze()
        columnar = ColumnarRepository(
            vantages={"T": vantage().to_dict()}, databases={"T": cdb}
        )
        head, segments, _ = encode_columnar_binary(columnar)
        data = bytearray(head + b"".join(bytes(s) for s in segments))
        data[6] = 99  # the binary format version
        with pytest.raises(DataError):
            decode_columnar_binary(bytes(data))

    def test_out_of_order_insert_still_rejected_after_load(self):
        from repro.data.columnar import ColumnarTable

        rebuilt = bin_round_trip(self.full_db().freeze())
        check_round_order(rebuilt)  # a well-formed load passes
        rows = rebuilt.table("downloads").rows()
        rows.reverse()
        rebuilt.tables = dict(rebuilt.tables)
        rebuilt.tables["downloads"] = ColumnarTable.from_rows("downloads", rows)
        with pytest.raises(DataError):
            check_round_order(rebuilt)

    def test_pickle_round_trip_is_the_wire_form(self):
        import pickle

        cdb = self.full_db().freeze()
        rebuilt = pickle.loads(pickle.dumps(cdb, pickle.HIGHEST_PROTOCOL))
        for name, table in cdb.tables.items():
            assert rebuilt.table(name).rows() == table.rows(), name
        assert digest_of(rebuilt) == digest_of(cdb)

    def test_dns_counts_survive_verbatim(self):
        cdb = self.full_db().freeze()
        rebuilt = bin_round_trip(cdb)
        assert rebuilt.table("dns_counts").rows() == [[0, 2, 2, 1]]
        assert v6_reachability(rebuilt, 0) == v6_reachability(cdb, 0) == 0.5


class TestDualStackMemoization:
    def test_cache_is_invalidated_by_writes(self, db):
        db.add_downloads([download(1, 0, V4, 100.0), download(1, 0, V6, 90.0)])
        assert dual_stack_sites(db.freeze()) == [1]
        # a later freeze sees every write made since
        db.add_downloads([download(2, 0, V4, 100.0), download(2, 0, V6, 90.0)])
        assert dual_stack_sites(db.freeze()) == [1, 2]

    def test_repeated_queries_reuse_cache(self, db):
        db.add_downloads([download(1, 0, V4, 100.0), download(1, 0, V6, 90.0)])
        cdb = db.freeze()
        first = dual_stack_sites(cdb)
        assert series_index(cdb) is series_index(cdb)
        second = dual_stack_sites(cdb)
        assert first == second
        # callers get copies, not the memo itself
        first.append(999)
        assert dual_stack_sites(cdb) == [1]
