"""Columnar encoding: round trips, payload validation, digest parity."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.data.columnar import (
    _BINARY_HEADER,
    BINARY_FORMAT,
    BINARY_MAGIC,
    COLUMNAR_FORMAT,
    TABLE_SCHEMAS,
    ColumnarDatabase,
    ColumnarRepository,
    ColumnarTable,
    DictColumn,
    columnar_view,
    decode_columnar_binary,
    encode_columnar_binary,
    iter_columnar_json,
)
from repro.errors import DataError
from repro.monitor.database import (
    DnsObservation,
    DownloadObservation,
    FaultObservation,
    MeasurementDatabase,
    PageCheck,
    PathObservation,
    TransitionObservation,
)
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def populated_db(
    with_faults: bool = True, with_transitions: bool = False
) -> MeasurementDatabase:
    """A write buffer filled round by round, as the round plane fills it
    (so each key's rows interleave with the other keys' before freezing)."""
    db = MeasurementDatabase(vantage_name="T")
    db.add_dns_round(0, (2, 2, 1), [DnsObservation(1, "s1", 0, True, True)])
    db.add_page_checks([PageCheck(1, 0, 1000, 1000, True)])
    for round_idx in (0, 1, 2):
        db.add_downloads([
            DownloadObservation(
                site_id=1,
                round_idx=round_idx,
                family=family,
                n_samples=5,
                mean_speed=100.0 + round_idx + (0 if family is V4 else 10),
                ci_half_width=1.5,
                converged=round_idx != 1,
                page_bytes=1000,
                timestamp=float(round_idx),
            )
            for family in (V4, V6)
        ])
        db.add_paths([
            PathObservation(
                1, round_idx, family,
                dest_asn=30,
                as_path=(10, 20, 30) if round_idx < 2 else (10, 25, 30),
            )
            for family in (V4, V6)
        ])
    if with_faults:
        db.add_fault(FaultObservation(1, 0, V6, "timeout"))
        db.add_fault(FaultObservation(1, 1, V6, "dns_timeout"))
        db.add_fault(FaultObservation(2, 1, V4, "reset"))
    if with_transitions:
        db.add_transitions([
            TransitionObservation(1, 0, "translated"),
            TransitionObservation(2, 0, "native"),
            TransitionObservation(1, 1, "translated"),
            TransitionObservation(1, 2, "native"),
        ])
    return db


def _wire(cdb: ColumnarDatabase) -> dict:
    """Every table's wire rows."""
    return {name: cdb.table(name).rows() for name in TABLE_SCHEMAS}


def _bin_round_trip(cdb: ColumnarDatabase) -> ColumnarDatabase:
    head, segments, _ = encode_columnar_binary(_one_database(cdb))
    blob = head + b"".join(bytes(segment) for segment in segments)
    return decode_columnar_binary(blob).databases[cdb.vantage_name]


def test_database_round_trip_is_bit_identical():
    cdb = populated_db().freeze()
    # wire order: each (site, family) group in first-appearance order,
    # rounds ascending inside it
    downloads = cdb.table("downloads").rows()
    assert [row[:3] for row in downloads] == [
        [1, V4.value, 0], [1, V4.value, 1], [1, V4.value, 2],
        [1, V6.value, 0], [1, V6.value, 1], [1, V6.value, 2],
    ]
    assert cdb.table("paths").column("as_path").dictionary == [
        [10, 20, 30], [10, 25, 30],
    ]
    assert _wire(_bin_round_trip(cdb)) == _wire(cdb)


def _one_database(cdb: ColumnarDatabase) -> ColumnarRepository:
    return ColumnarRepository(
        vantages={cdb.vantage_name: {"name": cdb.vantage_name}},
        databases={cdb.vantage_name: cdb},
    )


def _json_tables(cdb: ColumnarDatabase) -> dict:
    """Wire rows per table, read back from the streamed JSON text."""
    text = "".join(iter_columnar_json(_one_database(cdb)))
    tables = json.loads(text)["databases"][cdb.vantage_name]["tables"]
    rows = {}
    for name, schema in TABLE_SCHEMAS.items():
        columns = []
        for column_name, _ in schema:
            column = tables[name]["columns"][column_name]
            if column["dtype"] == "dict":
                dictionary = column["dictionary"]
                columns.append([dictionary[code] for code in column["codes"]])
            else:
                columns.append(column["values"])
        rows[name] = [list(row) for row in zip(*columns)]
    return rows


def _binary_with_meta(db: MeasurementDatabase, mutate) -> bytes:
    """``columnar.bin`` bytes of ``db`` with its metadata edited by
    ``mutate`` and the sha256 recomputed, so the structural checks (not
    the digest) must reject the edit."""
    head, segments, _ = encode_columnar_binary(_one_database(db.freeze()))
    meta = json.loads(head[_BINARY_HEADER.size :])
    mutate(meta)
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    body = b"".join(bytes(segment) for segment in segments)
    digest = hashlib.sha256(meta_bytes + body).digest()
    header = _BINARY_HEADER.pack(
        BINARY_MAGIC, BINARY_FORMAT, len(meta_bytes), digest
    )
    return header + meta_bytes + body


def test_payload_round_trip_through_json():
    cdb = populated_db().freeze()
    assert _json_tables(cdb) == _wire(cdb)


def test_faults_table_round_trips():
    cdb = _bin_round_trip(populated_db(with_faults=True).freeze())
    table = cdb.table("faults")
    assert table.n_rows == 3
    # dictionary-encoded kind and family decode to the original values
    assert table.rows() == [
        [1, V6.value, 0, "timeout"],
        [1, V6.value, 1, "dns_timeout"],
        [2, V4.value, 1, "reset"],
    ]


def test_faults_export_csv_round_trip(tmp_path):
    # the CSV export of a binary-round-tripped database is byte-equal to
    # the frozen one's, and its per-kind counts match the faults table
    import csv

    from repro.monitor.export import export_faults_csv

    cdb = populated_db(with_faults=True).freeze()
    rebuilt = _bin_round_trip(cdb)
    original_path = tmp_path / "original.csv"
    rebuilt_path = tmp_path / "rebuilt.csv"
    assert export_faults_csv(cdb, original_path) == export_faults_csv(
        rebuilt, rebuilt_path
    )
    assert original_path.read_bytes() == rebuilt_path.read_bytes()
    with original_path.open(newline="", encoding="utf-8") as handle:
        by_kind: dict[str, int] = {}
        for row in csv.DictReader(handle):
            by_kind[row["kind"]] = by_kind.get(row["kind"], 0) + int(row["count"])
    assert by_kind == {"timeout": 1, "dns_timeout": 1, "reset": 1}


def test_transitions_table_round_trips():
    from repro.data.series import transition_counts

    cdb = _bin_round_trip(populated_db(with_transitions=True).freeze())
    table = cdb.table("transitions")
    assert table.n_rows == 4
    # dictionary-encoded transition kinds decode to the original values
    assert table.rows() == [
        [1, 0, "translated"],
        [2, 0, "native"],
        [1, 1, "translated"],
        [1, 2, "native"],
    ]
    assert transition_counts(cdb) == {"translated": 2, "native": 2}


def test_transitions_payload_round_trip_through_json():
    cdb = populated_db(with_transitions=True).freeze()
    tables = _json_tables(cdb)
    assert tables["transitions"] == cdb.table("transitions").rows()
    assert tables == _wire(cdb)


def test_transitions_export_csv_round_trip(tmp_path):
    import csv

    from repro.monitor.export import export_transitions_csv

    cdb = populated_db(with_transitions=True).freeze()
    rebuilt = _bin_round_trip(cdb)
    original_path = tmp_path / "original.csv"
    rebuilt_path = tmp_path / "rebuilt.csv"
    assert export_transitions_csv(cdb, original_path) == export_transitions_csv(
        rebuilt, rebuilt_path
    )
    assert original_path.read_bytes() == rebuilt_path.read_bytes()
    with original_path.open(newline="", encoding="utf-8") as handle:
        by_kind: dict[str, int] = {}
        for row in csv.DictReader(handle):
            by_kind[row["transition"]] = by_kind.get(row["transition"], 0) + 1
    assert by_kind == {"translated": 2, "native": 2}


def _wire_keys(cdb: ColumnarDatabase) -> list[str]:
    from repro.monitor.aggregate import CentralRepository
    from repro.monitor.vantage import VantageKind, VantagePoint

    repository = CentralRepository()
    repository.add(
        VantagePoint(
            name=cdb.vantage_name, location="X", asn=10, start_round=0,
            as_path_available=True, white_listed=False,
            kind=VantageKind.ACADEMIC,
        ),
        cdb,
    )
    return list(repository.to_dict()["databases"][cdb.vantage_name])


def test_transitionless_database_keeps_wire_layout():
    # the wire form omits the transitions key when empty; legacy content
    # digests depend on it, before and after a binary round trip
    cdb = populated_db(with_transitions=False).freeze()
    assert "transitions" not in _wire_keys(cdb)
    assert "transitions" not in _wire_keys(_bin_round_trip(cdb))
    assert "transitions" in _wire_keys(
        populated_db(with_transitions=True).freeze()
    )


def test_faultless_database_keeps_wire_layout():
    # the wire form omits the faults key when empty (the content digest
    # depends on it), before and after a binary round trip
    cdb = populated_db(with_faults=False).freeze()
    assert _wire_keys(cdb) == [
        "format", "vantage_name", "dns", "dns_counts", "page_checks",
        "downloads", "paths",
    ]
    assert _wire_keys(_bin_round_trip(cdb)) == _wire_keys(cdb)


def test_repository_digest_parity(small_campaign):
    from repro.monitor.aggregate import CentralRepository
    from repro.monitor.vantage import VantagePoint

    repository = small_campaign.repository
    head, segments, _ = encode_columnar_binary(
        ColumnarRepository.from_repository(repository)
    )
    blob = head + b"".join(bytes(segment) for segment in segments)
    decoded = decode_columnar_binary(blob)
    rebuilt = CentralRepository()
    for name, vantage in decoded.vantages.items():
        rebuilt.add(VantagePoint.from_dict(vantage), decoded.databases[name])
    assert rebuilt.content_digest() == repository.content_digest()


def test_freeze_takes_every_write_so_far():
    db = populated_db()
    view = db.freeze()
    db.add_fault(FaultObservation(2, 2, V4, "timeout"))
    fresh = columnar_view(db)
    assert fresh is not view
    assert fresh.table("faults").n_rows == view.table("faults").n_rows + 1


def test_sorted_index_equal_range_prefix():
    table = populated_db().freeze().table("downloads")
    index = table.index()
    rows = index.equal_range((1, table.column("family").encode(V6.value)))
    assert rows == sorted(rows)
    assert [table.column("family").get(r) for r in rows] == [V6.value] * 3
    assert index.equal_range((99,)) == []


def test_unknown_format_rejected():
    blob = _binary_with_meta(
        populated_db(), lambda meta: meta.update(format=COLUMNAR_FORMAT + 1)
    )
    with pytest.raises(DataError, match="unsupported columnar format"):
        decode_columnar_binary(blob)


def _edit_table(name: str, edit):
    def mutate(meta):
        (database,) = meta["databases"]
        edit(database, next(t for t in database["tables"] if t["name"] == name))

    return mutate


def test_malformed_payloads_rejected():
    db = populated_db()
    missing = _binary_with_meta(
        db,
        _edit_table("dns", lambda database, table: database["tables"].remove(table)),
    )
    with pytest.raises(DataError, match="misses table 'dns'"):
        decode_columnar_binary(missing)

    wrong_count = _binary_with_meta(
        db, _edit_table("downloads", lambda _, table: table.update(n_rows=7))
    )
    with pytest.raises(DataError, match="rows"):
        decode_columnar_binary(wrong_count).databases["T"].table("downloads")

    def retype(_, table):
        table["columns"][0]["dtype"] = "f64"

    wrong_dtype = _binary_with_meta(db, _edit_table("downloads", retype))
    with pytest.raises(DataError, match="dtype"):
        decode_columnar_binary(wrong_dtype).databases["T"].table("downloads")


def test_dict_column_validates_codes():
    with pytest.raises(DataError, match="outside"):
        DictColumn("kind", codes=[0, 5], dictionary=["a", "b"])


def test_ragged_columns_rejected():
    from repro.data.columnar import Column

    with pytest.raises(DataError, match="ragged"):
        ColumnarTable(
            "dns_counts",
            {
                "round": Column("round", "i64", [0, 1]),
                "queried": Column("queried", "i64", [2]),
                "with_a": Column("with_a", "i64", [2, 2]),
                "with_aaaa": Column("with_aaaa", "i64", [1, 1]),
            },
        )
