"""The streamed encodings equal their one-shot definitions.

No caller materialises a whole campaign's JSON text: the repository
digest is hashed from per-table chunks in sorted-key order, and the
columnar JSON text is streamed one column at a time.  Both are checked
here against the definitions they stand in for, over randomly populated
repositories (every dtype, empty tables, unicode, optional
``faults``/``transitions`` tables, several vantages in unsorted
insertion order):

* ``CentralRepository.content_digest()`` equals
  ``sha256(json.dumps(to_dict(), sort_keys=True, separators=(",", ":")))``,
  and the chunks of ``CentralRepository.iter_canonical_json()`` are that
  compact sorted-key dump;
* ``"".join(iter_columnar_json(r))`` equals
  ``json.dumps(r.to_payload(), separators=(",", ":"))``, also for a
  repository decoded from ``columnar.bin`` (memoryview-backed columns).
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import (
    TABLE_SCHEMAS,
    ColumnarDatabase,
    ColumnarRepository,
    ColumnarTable,
    decode_columnar_binary,
    encode_columnar_binary,
    iter_columnar_json,
)
from repro.monitor.aggregate import CentralRepository
from repro.monitor.vantage import VantageKind, VantagePoint

from .test_columnar_binary import TEXT, _row_strategy, repositories

COMPACT = (",", ":")


def _wire_rows(draw, table: str) -> list:
    """Random wire rows whose round column counts up by row, as the
    monitor's in-order writes leave them."""
    rows = draw(st.lists(_row_strategy(table), max_size=6))
    position = [name for name, _ in TABLE_SCHEMAS[table]].index("round")
    for round_idx, row in enumerate(rows):
        row[position] = round_idx
    return rows


@st.composite
def central_repositories(draw) -> CentralRepository:
    # Drawn order is insertion order, sorted or not.
    names = draw(st.lists(TEXT.filter(bool), unique=True, max_size=3))
    repository = CentralRepository()
    for name in names:
        tables = {
            table: ColumnarTable.from_rows(table, _wire_rows(draw, table))
            for table in TABLE_SCHEMAS
        }
        vantage = VantagePoint(
            name=name,
            location=draw(TEXT),
            asn=draw(st.integers(min_value=1, max_value=2**32)),
            start_round=draw(st.integers(min_value=0, max_value=50)),
            as_path_available=draw(st.booleans()),
            white_listed=draw(st.booleans()),
            kind=draw(st.sampled_from(list(VantageKind))),
            external_inputs=draw(st.booleans()),
        )
        repository.add(vantage, ColumnarDatabase(name, tables))
    return repository


@settings(max_examples=60, deadline=None)
@given(repository=central_repositories())
def test_chunked_content_digest_equals_definition(repository):
    canonical = json.dumps(repository.to_dict(), sort_keys=True, separators=COMPACT)
    expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert repository.content_digest() == expected


@settings(max_examples=60, deadline=None)
@given(repository=central_repositories())
def test_repository_json_chunks_equal_compact_dump(repository):
    compact = json.dumps(repository.to_dict(), sort_keys=True, separators=COMPACT)
    assert "".join(repository.iter_canonical_json()) == compact


@settings(max_examples=60, deadline=None)
@given(repository=central_repositories())
def test_columnar_chunks_of_a_transposed_repository(repository):
    columnar = ColumnarRepository.from_repository(repository)
    expected = json.dumps(columnar.to_payload(), separators=COMPACT)
    assert "".join(iter_columnar_json(columnar)) == expected


@settings(max_examples=40, deadline=None)
@given(repository=repositories())
def test_columnar_chunks_equal_one_shot_payload(repository):
    expected = json.dumps(repository.to_payload(), separators=COMPACT)
    assert "".join(iter_columnar_json(repository)) == expected
    head, segments, _ = encode_columnar_binary(repository)
    decoded = decode_columnar_binary(head + b"".join(bytes(s) for s in segments))
    assert "".join(iter_columnar_json(decoded)) == expected


def test_from_repository_wraps_the_databases(small_campaign):
    from repro.obs import metrics

    repository = small_campaign.repository
    encodes = metrics.counter("data.columnar.encodes")
    before = encodes.value
    columnar = ColumnarRepository.from_repository(repository)
    assert encodes.value == before  # no transpose
    assert list(columnar.databases) == repository.vantage_names
    for vantage, cdb in repository.items():
        assert columnar.databases[vantage.name] is cdb
        assert columnar.vantages[vantage.name] == vantage.to_dict()
