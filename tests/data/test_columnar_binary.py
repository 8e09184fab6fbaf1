"""The binary columnar artifact: byte-identical round trips, corruption.

Hypothesis drives the round-trip property over randomly populated
repositories — every dtype (i64/f64/bool/str/dict), unicode strings,
empty tables, zero-vantage repositories.  The properties are exact:
the canonical columnar JSON text rebuilt from a decoded
``columnar.bin`` must be byte-identical to the original's, re-encoding
a decoded repository must reproduce the binary content digest, and any
truncation or byte flip must raise a structured :class:`DataError`
before a single column value is trusted.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.data.columnar import (
    BINARY_MAGIC,
    ColumnarDatabase,
    ColumnarRepository,
    ColumnarTable,
    FAMILY_DICTIONARY,
    LazyColumnarDatabase,
    TABLE_SCHEMAS,
    decode_columnar_binary,
    encode_columnar_binary,
    iter_columnar_json,
    load_columnar_binary,
    write_columnar_binary,
    write_columnar_json,
)
from repro.errors import DataError
from repro.monitor.aggregate import CentralRepository
from repro.monitor.database import FAULT_KINDS, TRANSITION_KINDS
from repro.monitor.vantage import VantagePoint

from .test_columnar import populated_db


def _counter(name: str) -> float:
    metric = obs.get_registry().get(name)
    return float(getattr(metric, "value", 0.0) or 0.0)


def _json_bytes(repository: ColumnarRepository) -> bytes:
    return "".join(iter_columnar_json(repository)).encode("utf-8")


def _binary_blob(repository: ColumnarRepository) -> tuple[bytes, str]:
    head, segments, digest = encode_columnar_binary(repository)
    return head + b"".join(bytes(segment) for segment in segments), digest


# ---------------------------------------------------------------------------
# repository strategy (every dtype, empty tables included)
# ---------------------------------------------------------------------------

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
F64 = st.floats(allow_nan=False, width=64)
TEXT = st.text(max_size=12)
FAMILY = st.sampled_from(list(FAMILY_DICTIONARY))
KIND = st.sampled_from(list(FAULT_KINDS))
TRANSITION = st.sampled_from(list(TRANSITION_KINDS))
AS_PATH = st.lists(st.integers(min_value=1, max_value=2**31), max_size=4)


def _row_strategy(table: str):
    parts = []
    for column, dtype in TABLE_SCHEMAS[table]:
        if column == "family":
            parts.append(FAMILY)
        elif column == "kind":
            parts.append(KIND)
        elif column == "transition":
            parts.append(TRANSITION)
        elif column == "as_path":
            parts.append(AS_PATH)
        elif dtype == "str":
            parts.append(TEXT)
        elif dtype == "i64":
            parts.append(I64)
        elif dtype == "f64":
            parts.append(F64)
        else:
            parts.append(st.booleans())
    return st.tuples(*parts).map(list)


@st.composite
def repositories(draw) -> ColumnarRepository:
    vantages: dict = {}
    databases: dict = {}
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        name = f"V{index}"
        tables = {
            table: ColumnarTable.from_rows(
                table, draw(st.lists(_row_strategy(table), max_size=6))
            )
            for table in TABLE_SCHEMAS
        }
        vantages[name] = {"name": name, "asn": draw(I64)}
        databases[name] = ColumnarDatabase(name, tables)
    return ColumnarRepository(vantages=vantages, databases=databases)


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(repository=repositories())
def test_binary_round_trip_is_byte_identical(repository):
    blob, digest = _binary_blob(repository)
    decoded = decode_columnar_binary(blob)
    assert _json_bytes(decoded) == _json_bytes(repository)
    # re-encoding the decoded repository lands on the same content digest
    assert _binary_blob(decoded)[1] == digest


@settings(max_examples=20, deadline=None)
@given(repository=repositories(), data=st.data())
def test_truncation_raises_structured_error(repository, data):
    blob, _ = _binary_blob(repository)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(DataError):
        decode_columnar_binary(blob[:cut])


@settings(max_examples=20, deadline=None)
@given(repository=repositories(), data=st.data())
def test_byte_flip_raises_structured_error(repository, data):
    blob, _ = _binary_blob(repository)
    position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    corrupt = bytearray(blob)
    corrupt[position] ^= 0xFF
    with pytest.raises(DataError):
        decode_columnar_binary(bytes(corrupt))


def test_empty_repository_round_trips():
    repository = ColumnarRepository()
    blob, _ = _binary_blob(repository)
    decoded = decode_columnar_binary(blob)
    assert decoded.databases == {}
    assert _json_bytes(decoded) == _json_bytes(repository)


# ---------------------------------------------------------------------------
# file-level artifacts + laziness
# ---------------------------------------------------------------------------


def _small_repository() -> ColumnarRepository:
    return ColumnarRepository(
        vantages={"T": {"name": "T"}},
        databases={"T": populated_db().freeze()},
    )


def test_file_round_trip_matches_json_artifact(tmp_path):
    repository = _small_repository()
    bin_path = tmp_path / "columnar.bin"
    digest = write_columnar_binary(bin_path, repository)
    assert bin_path.read_bytes().startswith(BINARY_MAGIC)
    assert len(digest) == 64
    decoded = load_columnar_binary(bin_path)
    original_json = tmp_path / "columnar.json"
    rebuilt_json = tmp_path / "rebuilt.json"
    write_columnar_json(original_json, repository)
    write_columnar_json(rebuilt_json, decoded)
    assert original_json.read_bytes() == rebuilt_json.read_bytes()


def test_missing_file_is_a_structured_error(tmp_path):
    with pytest.raises(DataError):
        load_columnar_binary(tmp_path / "nope.bin")


def test_decode_is_lazy_and_memoized_per_table():
    repository = _small_repository()
    blob, _ = _binary_blob(repository)
    before = _counter("data.columnar.bin_table_decodes")
    decoded = decode_columnar_binary(blob)
    cdb = decoded.databases["T"]
    assert isinstance(cdb, LazyColumnarDatabase)
    # row counts come from the metadata: no table has been decoded yet
    assert cdb.row_counts() == repository.databases["T"].row_counts()
    assert _counter("data.columnar.bin_table_decodes") == before
    first = cdb.table("downloads")
    assert _counter("data.columnar.bin_table_decodes") == before + 1
    assert cdb.table("downloads") is first  # memoized
    assert _counter("data.columnar.bin_table_decodes") == before + 1


def test_campaign_binary_preserves_content_digest(small_campaign, tmp_path):
    repository = ColumnarRepository.from_repository(small_campaign.repository)
    bin_path = tmp_path / "columnar.bin"
    write_columnar_binary(bin_path, repository)
    decoded = load_columnar_binary(bin_path)
    assert _json_bytes(decoded) == _json_bytes(repository)
    rebuilt = CentralRepository()
    for name, vantage in decoded.vantages.items():
        rebuilt.add(VantagePoint.from_dict(vantage), decoded.databases[name])
    assert (
        rebuilt.content_digest()
        == small_campaign.repository.content_digest()
    )
