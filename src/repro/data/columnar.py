"""Struct-of-arrays encodings of the measurement tables.

The paper's tool writes each round into "several tables in a mysql
database" and analyses those tables afterwards.  This module defines
those tables once, as the reproduction's one measurement data model:
DNS observations, page checks, downloads, AS paths, faults,
transitions, plus the per-round DNS counters, as typed columns with
dictionary encoding for the low-cardinality values (address family,
fault kind, AS path) and lazily built per-``(site_id, family, round)``
sorted indices for point lookups.

A vantage's :class:`~repro.monitor.database.MeasurementDatabase` is only
the round plane's write buffer.  :func:`columnar_view` turns it into a
:class:`ColumnarDatabase` once, when the vantage's shard ends; from then
on the campaign (shard results, the central repository, the store, the
analysis, the observers and ``repro serve``) holds columns and nothing
rebuilds row objects.  Rows keep the wire order: grouped by the first
appearance of each key (site, or site and family), rounds ascending
within a group.

Columns are backed by compact typed storage rather than Python lists:
``array('q')`` for i64, ``array('d')`` for f64, one byte per row for
bool, ``array('I')`` codes for dictionary columns.  Only str columns
keep a Python list.  Decoded binary columns are zero-copy
``memoryview`` casts over the mapped file bytes.

``columnar.bin`` is the store's form: a struct-packed header
(``magic, version, meta length, sha256``), a canonical-JSON metadata
blob naming every column's byte range (dictionaries inline), then
8-byte-aligned little-endian raw column buffers.  The sha256 covers
metadata plus body, is computed incrementally at write time, and is
verified on every load.  Decoding is lazy at table granularity:
:class:`LazyColumnarDatabase` materialises a table only when it is
first touched.  :func:`check_round_order` re-checks the write buffer's
invariants on decoded columns.

:func:`iter_columnar_json` streams the same repository as canonical
JSON, one column at a time: the interchange encoding, and the oracle
the binary codec's round trips are checked against.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

from ..errors import DataError
from ..net.addresses import AddressFamily
from ..obs import metrics

#: columnar file-format version; bumped on incompatible layout changes.
COLUMNAR_FORMAT = 1

#: binary (``columnar.bin``) format version; independent of the JSON form.
BINARY_FORMAT = 1

#: magic prefix of every ``columnar.bin`` file.
BINARY_MAGIC = b"RPRCOL"

#: header: magic, u16 version, u64 metadata length, sha256(meta || body).
_BINARY_HEADER = struct.Struct("<6sHQ32s")

#: fixed dictionary for family columns (codes are list positions).
FAMILY_DICTIONARY = (AddressFamily.IPV4.value, AddressFamily.IPV6.value)

#: fault kinds recorded by the monitor (injected failures only — a
#: structurally unreachable destination is not a fault).
FAULT_KINDS = (
    "dns_timeout",
    "dns_exhausted",
    "timeout",
    "reset",
    "exhausted",
)

#: how a measured IPv6 connection actually crossed the Internet:
#: natively routed end to end, through a 6to4/broker tunnel, or
#: NAT64-translated onto an IPv4 leg.  Order is the wire dictionary.
TRANSITION_KINDS = (
    "native",
    "tunneled",
    "translated",
)

#: the compact wire encoding, run by the one-shot C encoder.
encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def iter_json_object(members):
    """Chunks of one compact JSON object from ``(key, value chunks)`` pairs."""
    yield "{"
    for i, (key, chunks) in enumerate(members):
        yield ("," if i else "") + encode_compact(key) + ":"
        yield from chunks
    yield "}"


#: plain column dtypes a payload may declare.
DTYPES = ("i64", "f64", "bool", "str")

#: array typecodes backing the fixed-width plain dtypes.
_TYPECODES = {"i64": "q", "f64": "d"}

_BOOLS = (False, True)

#: conversion effectiveness counters (serve's LRU and the store read these).
_ENCODES = metrics.counter("data.columnar.encodes")
_BIN_ENCODES = metrics.counter("data.columnar.bin_encodes")
_BIN_DECODES = metrics.counter("data.columnar.bin_decodes")
_BIN_DIGEST_VERIFIED = metrics.counter("data.columnar.bin_digest_verified")
_BIN_TABLE_DECODES = metrics.counter("data.columnar.bin_table_decodes")


def _plain_storage(name: str, dtype: str, values):
    """Coerce ``values`` into the compact backing store for ``dtype``.

    Typed buffers (arrays, memoryview casts, bool byte strings) pass
    through untouched, so binary decode stays zero-copy.
    """
    if dtype in _TYPECODES:
        if isinstance(values, (array, memoryview)):
            return values
        try:
            return array(_TYPECODES[dtype], values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(
                f"column {name!r}: value not storable as {dtype}: {exc}"
            ) from exc
    if dtype == "bool":
        if isinstance(values, (bytes, bytearray, memoryview)):
            return values
        if set(map(type, values)) - {bool}:
            value = next(v for v in values if type(v) is not bool)
            raise DataError(
                f"column {name!r}: value {value!r} not storable as bool"
            )
        return bytes(values)
    # str columns stay a Python list (variable-width values).
    return values if isinstance(values, list) else list(values)


class Column:
    """One plainly-stored typed column over compact array storage."""

    __slots__ = ("name", "dtype", "values")

    def __init__(self, name: str, dtype: str, values) -> None:
        if dtype not in DTYPES:
            raise DataError(f"unknown column dtype {dtype!r}")
        self.name = name
        self.dtype = dtype
        self.values = _plain_storage(name, dtype, values)

    @classmethod
    def _from_storage(cls, name: str, dtype: str, storage) -> "Column":
        column = object.__new__(cls)
        column.name = name
        column.dtype = dtype
        column.values = storage
        return column

    def __len__(self) -> int:
        return len(self.values)

    def get(self, row: int):
        if self.dtype == "bool":
            return _BOOLS[self.values[row]]
        return self.values[row]

    def raw(self, row: int):
        """The sortable storage value (bool columns yield 0/1 here)."""
        return self.values[row]

    def take(self, rows) -> list:
        """Bulk-decode the given row ids into wire values."""
        values = self.values
        if self.dtype == "bool":
            return [_BOOLS[values[row]] for row in rows]
        return [values[row] for row in rows]

    def values_list(self) -> list:
        """Every wire value, in row order (str columns: no copy)."""
        if self.dtype == "bool":
            return [_BOOLS[value] for value in self.values]
        if self.dtype == "str":
            return self.values
        return list(self.values)

    def to_payload(self) -> dict:
        return {"dtype": self.dtype, "values": self.values_list()}


class DictColumn:
    """A dictionary-encoded column: per-row codes into a value list.

    Used for the low-cardinality columns — address family, fault kind —
    and for AS paths, where a campaign observes few distinct paths but
    records one per (site, family, round).  Codes live in an
    ``array('I')`` (or a memoryview cast over mapped binary bytes).
    """

    __slots__ = ("name", "codes", "dictionary", "_positions")

    def __init__(self, name: str, codes, dictionary) -> None:
        self.name = name
        self.dictionary = (
            dictionary if isinstance(dictionary, list) else list(dictionary)
        )
        n = len(self.dictionary)
        if isinstance(codes, (array, memoryview)):
            store = codes
        else:
            try:
                store = array("I", codes)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(
                    f"column {name!r}: code outside dictionary of "
                    f"{n} entries ({exc})"
                ) from exc
        if len(store) and max(store) >= n:
            raise DataError(
                f"column {name!r}: code {max(store)!r} outside "
                f"dictionary of {n} entries"
            )
        self.codes = store
        self._positions = None

    @classmethod
    def _from_storage(cls, name: str, codes, dictionary: list) -> "DictColumn":
        column = object.__new__(cls)
        column.name = name
        column.codes = codes
        column.dictionary = dictionary
        column._positions = None
        return column

    def __len__(self) -> int:
        return len(self.codes)

    def get(self, row: int):
        return self.dictionary[self.codes[row]]

    def raw(self, row: int) -> int:
        return self.codes[row]

    def take(self, rows) -> list:
        dictionary = self.dictionary
        codes = self.codes
        return [dictionary[codes[row]] for row in rows]

    def values_list(self) -> list:
        dictionary = self.dictionary
        return [dictionary[code] for code in self.codes]

    def encode(self, value) -> int | None:
        """The code for ``value``, or None when it never occurs."""
        positions = self._positions
        if positions is None:
            positions = {}
            for i, entry in enumerate(self.dictionary):
                key = tuple(entry) if isinstance(entry, list) else entry
                positions.setdefault(key, i)
            self._positions = positions
        key = tuple(value) if isinstance(value, list) else value
        try:
            return positions.get(key)
        except TypeError:
            return None

    def to_payload(self) -> dict:
        return {
            "dtype": "dict",
            "codes": list(self.codes),
            "dictionary": self.dictionary,
        }


class SortedIndex:
    """Row ids sorted by a key-column tuple, with equal-range lookup.

    The sort is stable, so within one full key the original row order —
    the monitor's monotone round order — is preserved, and an equal-range
    probe on a key *prefix* (``site_id`` alone, or ``site_id, family``)
    returns rows in ascending row id.  Each prefix length gets a
    ``prefix -> (lo, hi)`` map over the sorted order, built on its first
    probe, so a probe is one dict lookup.
    """

    def __init__(self, table: "ColumnarTable", keys: tuple[str, ...]) -> None:
        self.keys = keys
        # each key's raw storage (dictionary codes, bools as 0/1); the
        # key tuples live only while sorting
        self._storage = [
            column.codes if isinstance(column, DictColumn) else column.values
            for column in (table.column(key) for key in keys)
        ]
        key_of = list(zip(*self._storage)).__getitem__
        self.order = array("q", sorted(range(table.n_rows), key=key_of))
        self._ranges: dict[int, dict[tuple, tuple[int, int]]] = {}

    def equal_range(self, prefix: tuple) -> list[int]:
        """Row ids whose key starts with ``prefix``, ascending."""
        k = len(prefix)
        ranges = self._ranges.get(k)
        if ranges is None:
            ranges = self._ranges[k] = self._prefix_ranges(k)
        try:
            bounds = ranges.get(prefix)
        except TypeError:  # an unhashable value equals no key
            return []
        if bounds is None:
            return []
        lo, hi = bounds
        return sorted(self.order[lo:hi])

    def _prefix_ranges(self, k: int) -> dict[tuple, tuple[int, int]]:
        """``prefix -> (lo, hi)`` positions in ``order``, in one pass."""
        order = self.order
        prefixes = zip(
            *[[column[row] for row in order] for column in self._storage[:k]]
        )
        ranges: dict[tuple, tuple[int, int]] = {}
        lo, current = 0, None
        for position, prefix in enumerate(prefixes):
            if prefix != current:
                if position:
                    ranges[current] = (lo, position)
                lo, current = position, prefix
        if order:
            ranges[current] = (lo, len(order))
        return ranges


#: table name -> (column name, dtype or "dict") in wire-row order.
TABLE_SCHEMAS: dict[str, tuple[tuple[str, str], ...]] = {
    "dns": (
        ("site_id", "i64"), ("name", "str"), ("round", "i64"),
        ("has_v4", "bool"), ("has_v6", "bool"), ("listed", "bool"),
    ),
    "dns_counts": (
        ("round", "i64"), ("queried", "i64"),
        ("with_a", "i64"), ("with_aaaa", "i64"),
    ),
    "page_checks": (
        ("site_id", "i64"), ("round", "i64"), ("v4_bytes", "i64"),
        ("v6_bytes", "i64"), ("identical", "bool"),
    ),
    "downloads": (
        ("site_id", "i64"), ("family", "dict"), ("round", "i64"),
        ("n_samples", "i64"), ("mean_speed", "f64"), ("ci_half_width", "f64"),
        ("converged", "bool"), ("page_bytes", "i64"), ("timestamp", "f64"),
    ),
    "paths": (
        ("site_id", "i64"), ("family", "dict"), ("round", "i64"),
        ("dest_asn", "i64"), ("as_path", "dict"),
    ),
    "faults": (
        ("site_id", "i64"), ("family", "dict"), ("round", "i64"),
        ("kind", "dict"),
    ),
    "transitions": (
        ("site_id", "i64"), ("round", "i64"), ("transition", "dict"),
    ),
}

#: the key columns each table's sorted index covers (prefix-probe order:
#: equality pushdown needs site_id first, then family).
TABLE_INDEX_KEYS: dict[str, tuple[str, ...]] = {
    "dns": ("site_id", "round"),
    "dns_counts": ("round",),
    "page_checks": ("site_id", "round"),
    "downloads": ("site_id", "family", "round"),
    "paths": ("site_id", "family", "round"),
    "faults": ("site_id", "family", "round"),
    "transitions": ("site_id", "round"),
}

#: columns with a *fixed* dictionary (shared vocabulary, stable codes).
#: the transitions table names its kind column "transition" so the two
#: vocabularies ("kind" = fault kinds) never collide here.
_FIXED_DICTIONARIES = {
    "family": list(FAMILY_DICTIONARY),
    "kind": list(FAULT_KINDS),
    "transition": list(TRANSITION_KINDS),
}

#: value -> code of each fixed dictionary; a family code is also found by
#: its :class:`AddressFamily` member (what the write buffer's rows hold).
_FIXED_POSITIONS = {
    name: {value: code for code, value in enumerate(dictionary)}
    for name, dictionary in _FIXED_DICTIONARIES.items()
}
_FIXED_POSITIONS["family"].update(
    (AddressFamily(value), code) for code, value in enumerate(FAMILY_DICTIONARY)
)


_JSON_BOOLS = ("false", "true")
#: ``float.__repr__`` of the non-finite values -> what ``json.dumps`` writes.
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_texts(column: "Column | DictColumn") -> list[str]:
    """Each value of ``column`` as the text ``encode_compact`` writes for it."""
    if isinstance(column, DictColumn):
        encoded = [encode_compact(value) for value in column.dictionary]
        return list(map(encoded.__getitem__, column.codes))
    values = column.values
    if column.dtype == "i64":
        return list(map(int.__repr__, values))
    if column.dtype == "f64":
        texts = list(map(float.__repr__, values))
        return list(map(_JSON_NON_FINITE.get, texts, texts))
    if column.dtype == "bool":
        return list(map(_JSON_BOOLS.__getitem__, values))
    return list(map(encode_basestring_ascii, values))


class ColumnarTable:
    """One table as named columns plus lazily built sorted indices."""

    def __init__(
        self, name: str, columns: dict[str, "Column | DictColumn"]
    ) -> None:
        self.name = name
        self.columns = columns
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1:
            raise DataError(
                f"table {name!r}: ragged columns (lengths {sorted(lengths)})"
            )
        self.n_rows = lengths.pop() if lengths else 0
        self._indices: dict[tuple[str, ...], SortedIndex] = {}

    def column(self, name: str) -> "Column | DictColumn":
        if name not in self.columns:
            raise DataError(
                f"table {self.name!r} has no column {name!r} "
                f"(columns: {', '.join(self.columns)})"
            )
        return self.columns[name]

    @property
    def index_keys(self) -> tuple[str, ...]:
        return TABLE_INDEX_KEYS[self.name]

    def index(self, keys: tuple[str, ...] | None = None) -> SortedIndex:
        keys = keys or self.index_keys
        if keys not in self._indices:
            self._indices[keys] = SortedIndex(self, keys)
        return self._indices[keys]

    def rows(self) -> list[list]:
        """Wire rows (the content digest's layout) rebuilt from the columns."""
        decoded = [
            self.columns[name].values_list()
            for name, _ in TABLE_SCHEMAS[self.name]
        ]
        return [list(row) for row in zip(*decoded)]

    def rows_json(self) -> str:
        """``encode_compact(self.rows())``, built column by column from
        each value's JSON text, so no per-row container is allocated."""
        if not self.n_rows:
            return "[]"
        texts = [
            _json_texts(self.columns[name]) for name, _ in TABLE_SCHEMAS[self.name]
        ]
        return "[[" + "],[".join(map(",".join, zip(*texts))) + "]]"

    def to_payload(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "columns": {
                name: column.to_payload() for name, column in self.columns.items()
            },
        }

    @classmethod
    def from_columns(cls, name: str, values) -> "ColumnarTable":
        """Typed columns from one value sequence per schema column, in
        schema order (dictionary-encoding as set by the schema)."""
        columns: dict[str, Column | DictColumn] = {}
        for (column_name, dtype), column_values in zip(TABLE_SCHEMAS[name], values):
            if dtype == "dict":
                columns[column_name] = _dict_column(column_name, column_values)
            else:
                columns[column_name] = Column(column_name, dtype, column_values)
        return cls(name, columns)

    @classmethod
    def from_rows(cls, name: str, rows: list) -> "ColumnarTable":
        """Transpose wire rows into columns."""
        values = list(zip(*rows)) or [()] * len(TABLE_SCHEMAS[name])
        return cls.from_columns(name, values)


def _dict_column(name: str, values) -> DictColumn:
    """Dictionary-encode ``values``.  A fixed vocabulary keeps its codes
    (values outside it get the next ones); AS paths, as lists or tuples,
    are coded in first-appearance order and stored as lists."""
    fixed = _FIXED_DICTIONARIES.get(name)
    if fixed is None:
        keys = list(map(tuple, values))
        positions = {key: code for code, key in enumerate(dict.fromkeys(keys))}
        dictionary = [list(key) for key in positions]
    else:
        keys = values
        positions = dict(_FIXED_POSITIONS[name])
        dictionary = list(fixed)
        for key in dict.fromkeys(keys):
            if key not in positions:
                positions[key] = len(dictionary)
                dictionary.append(key)
    return DictColumn(name, array("I", map(positions.__getitem__, keys)), dictionary)


class ColumnarDatabase:
    """Every table of one vantage point's database, in columnar form."""

    def __init__(
        self, vantage_name: str, tables: "Mapping[str, ColumnarTable]"
    ) -> None:
        self.vantage_name = vantage_name
        self.tables = tables
        #: the memoised :class:`repro.data.series.SeriesIndex`.
        self._series = None

    def table(self, name: str) -> ColumnarTable:
        if name not in self.tables:
            raise DataError(
                f"unknown table {name!r} (tables: {', '.join(self.tables)})"
            )
        return self.tables[name]

    def row_counts(self) -> dict[str, int]:
        return {name: table.n_rows for name, table in self.tables.items()}

    def to_payload(self) -> dict:
        return {
            "vantage_name": self.vantage_name,
            "tables": {
                name: table.to_payload() for name, table in self.tables.items()
            },
        }


class _LazyTables(Mapping):
    """A table map that materialises each table on first access."""

    __slots__ = ("_loaders", "_cache")

    def __init__(self, loaders: dict) -> None:
        self._loaders = dict(loaders)
        self._cache: dict[str, ColumnarTable] = {}

    def __getitem__(self, name: str) -> ColumnarTable:
        table = self._cache.get(name)
        if table is None:
            loader = self._loaders[name]
            table = loader()
            self._cache[name] = table
        return table

    def __iter__(self):
        return iter(self._loaders)

    def __len__(self) -> int:
        return len(self._loaders)


class LazyColumnarDatabase(ColumnarDatabase):
    """A columnar database whose tables decode lazily from binary bytes.

    Row counts come from the binary metadata, so :meth:`row_counts`
    (the ``/campaigns/<digest>`` detail page) touches no column data.
    """

    def __init__(
        self, vantage_name: str, loaders: dict, row_counts: dict[str, int]
    ) -> None:
        super().__init__(vantage_name, _LazyTables(loaders))
        self._row_counts = dict(row_counts)

    def row_counts(self) -> dict[str, int]:
        return dict(self._row_counts)


@dataclass
class ColumnarRepository:
    """A whole campaign — vantage roster plus columnar databases — as the
    campaign store writes it (``columnar.bin``)."""

    vantages: dict[str, dict] = field(default_factory=dict)
    databases: dict[str, ColumnarDatabase] = field(default_factory=dict)

    @classmethod
    def from_repository(cls, repository) -> "ColumnarRepository":
        """A :class:`~repro.monitor.aggregate.CentralRepository`'s roster,
        as wire dicts, around its own databases (nothing is copied)."""
        vantages, databases = {}, {}
        for vantage, cdb in repository.items():
            vantages[vantage.name] = vantage.to_dict()
            databases[vantage.name] = cdb
        return cls(vantages=vantages, databases=databases)

    def to_payload(self) -> dict:
        return {
            "format": COLUMNAR_FORMAT,
            "vantages": list(self.vantages.values()),
            "databases": {
                name: cdb.to_payload() for name, cdb in self.databases.items()
            },
        }


# ---------------------------------------------------------------------------
# the write buffer's exit, and its invariants on decoded columns

#: the row-object field behind each schema column, where the names differ.
_ROW_FIELDS = {"round": "round_idx", "transition": "kind"}


def _frozen_table(name: str, rows: list) -> ColumnarTable:
    schema = TABLE_SCHEMAS[name]
    if not rows:
        return ColumnarTable.from_columns(name, [()] * len(schema))
    by_field = dict(zip(rows[0]._fields, zip(*rows)))
    return ColumnarTable.from_columns(
        name, [by_field[_ROW_FIELDS.get(column, column)] for column, _ in schema]
    )


def columnar_view(db) -> ColumnarDatabase:
    """A :class:`~repro.monitor.database.MeasurementDatabase` write
    buffer's tables as columns, in wire row order.

    Its :meth:`~repro.monitor.database.MeasurementDatabase.freeze` — the
    buffer's one exit, taken once when a vantage's shard ends.  Grouped
    tables concatenate their per-key row lists in first-appearance order
    of the key; ``data.columnar.encodes`` counts the transposes.
    """
    _ENCODES.inc()
    counts = db.dns_counts
    tables = {
        "dns": _frozen_table("dns", list(chain.from_iterable(db.dns.values()))),
        "dns_counts": ColumnarTable.from_columns(
            "dns_counts",
            [list(counts), *zip(*counts.values())] if counts else [()] * 4,
        ),
        "page_checks": _frozen_table(
            "page_checks", list(chain.from_iterable(db.page_checks.values()))
        ),
        "downloads": _frozen_table(
            "downloads", list(chain.from_iterable(db.downloads.values()))
        ),
        "paths": _frozen_table(
            "paths", list(chain.from_iterable(db.paths.values()))
        ),
        "faults": _frozen_table("faults", db.faults),
        "transitions": _frozen_table("transitions", db.transitions),
    }
    return ColumnarDatabase(db.vantage_name, tables)


#: the key columns inside which each grouped table's rounds ascend.
_GROUP_KEYS = {
    "dns": ("site_id",),
    "page_checks": ("site_id",),
    "downloads": ("site_id", "family"),
    "paths": ("site_id", "family"),
}


def check_round_order(cdb: ColumnarDatabase) -> None:
    """Check decoded columns against the write buffer's invariants.

    Within one site (``dns``, ``page_checks``) or one (site, family)
    (``downloads``, ``paths``) rounds strictly ascend; ``faults`` and
    ``transitions`` never go back a round; every family, fault kind and
    transition kind is in its vocabulary.  Raises :class:`DataError`.
    """
    for name in TABLE_SCHEMAS:
        table = cdb.tables[name]
        for column_name, column in table.columns.items():
            vocabulary = _FIXED_DICTIONARIES.get(column_name)
            if vocabulary is None:
                continue
            unknown = [v for v in column.dictionary if v not in vocabulary]
            if unknown:
                raise DataError(
                    f"{cdb.vantage_name}/{name}: unknown {column_name} "
                    f"{unknown[0]!r}"
                )
        if name == "dns_counts":
            continue
        rounds = table.column("round").values
        keys = _GROUP_KEYS.get(name)
        if keys is None:
            for row, (prev, cur) in enumerate(zip(rounds, rounds[1:])):
                if prev > cur:
                    raise DataError(
                        f"{cdb.vantage_name}/{name}: row {row + 1} goes back "
                        f"to round {cur} after {prev}"
                    )
            continue
        key_columns = [
            column.codes if isinstance(column, DictColumn) else column.values
            for column in (table.column(key) for key in keys)
        ]
        last: dict = {}
        for key, round_idx in zip(zip(*key_columns), rounds):
            prev = last.get(key)
            if prev is not None and prev >= round_idx:
                raise DataError(
                    f"{cdb.vantage_name}/{name}: out-of-order rows for "
                    f"site {key[0]}: round {round_idx} after {prev}"
                )
            last[key] = round_idx


# ---------------------------------------------------------------------------
# streaming JSON encode (canonical interchange text, one column at a time)


def _table_chunks(table: ColumnarTable):
    yield '{"n_rows":' + encode_compact(table.n_rows) + ',"columns":'
    yield from iter_json_object(
        (name, (encode_compact(column.to_payload()),))
        for name, column in table.columns.items()
    )
    yield "}"


def _database_chunks(cdb: ColumnarDatabase):
    yield '{"vantage_name":' + encode_compact(cdb.vantage_name) + ',"tables":'
    yield from iter_json_object(
        (name, _table_chunks(table)) for name, table in cdb.tables.items()
    )
    yield "}"


def iter_columnar_json(repository: ColumnarRepository):
    """Chunks of the canonical columnar JSON text, streamed.

    Byte-identical to ``json.dumps(repository.to_payload(),
    separators=(",", ":"))``: the framing plus one C-encoded
    ``column.to_payload()`` per column, so at most one column's value
    list is materialised at a time.
    """
    yield (
        '{"format":' + encode_compact(COLUMNAR_FORMAT)
        + ',"vantages":' + encode_compact(list(repository.vantages.values()))
        + ',"databases":'
    )
    yield from iter_json_object(
        (name, _database_chunks(cdb))
        for name, cdb in repository.databases.items()
    )
    yield "}"


def write_columnar_json(path, repository: ColumnarRepository) -> None:
    """Stream the canonical columnar JSON text to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(iter_columnar_json(repository))


# ---------------------------------------------------------------------------
# binary encode/decode (columnar.bin)


class _BodyWriter:
    """Accumulates 8-byte-aligned body segments and their offsets."""

    def __init__(self) -> None:
        self.segments: list = []
        self.offset = 0

    def put(self, buffer) -> tuple[int, int]:
        nbytes = memoryview(buffer).nbytes
        start = self.offset
        self.segments.append(buffer)
        self.offset += nbytes
        pad = (-self.offset) % 8
        if pad:
            self.segments.append(b"\x00" * pad)
            self.offset += pad
        return start, nbytes


def _column_binary_desc(
    name: str, column: "Column | DictColumn", body: _BodyWriter
) -> dict:
    """Append one column's raw buffers to ``body``; return its metadata."""
    if isinstance(column, DictColumn):
        codes = column.codes
        if not isinstance(codes, (array, memoryview)):
            codes = array("I", codes)
        offset, nbytes = body.put(codes)
        return {
            "name": name,
            "dtype": "dict",
            "offset": offset,
            "nbytes": nbytes,
            "dictionary": column.dictionary,
        }
    if column.dtype in ("i64", "f64", "bool"):
        offset, nbytes = body.put(column.values)
        return {
            "name": name,
            "dtype": column.dtype,
            "offset": offset,
            "nbytes": nbytes,
        }
    # str: u64 cumulative offsets (n_rows + 1 entries) plus a utf-8 blob.
    try:
        encoded = [value.encode("utf-8") for value in column.values]
    except (AttributeError, UnicodeEncodeError) as exc:
        raise DataError(
            f"column {name!r}: str column holds non-string value: {exc}"
        ) from exc
    offsets = array("Q", [0])
    total = 0
    for item in encoded:
        total += len(item)
        offsets.append(total)
    offset, nbytes = body.put(offsets)
    blob_offset, blob_nbytes = body.put(b"".join(encoded))
    return {
        "name": name,
        "dtype": "str",
        "offset": offset,
        "nbytes": nbytes,
        "blob_offset": blob_offset,
        "blob_nbytes": blob_nbytes,
    }


def encode_columnar_binary(repository: ColumnarRepository) -> tuple[bytes, list, str]:
    """The binary artifact as ``(head_bytes, body_segments, hex_digest)``.

    ``head_bytes`` is header + metadata; ``body_segments`` are the raw
    column buffers (zero-copy references into the live columns).  The
    sha256 is computed incrementally over metadata plus body.
    """
    _BIN_ENCODES.inc()
    body = _BodyWriter()
    databases_meta = []
    for cdb in repository.databases.values():
        tables_meta = []
        for table_name in TABLE_SCHEMAS:
            table = cdb.tables[table_name]
            columns_meta = [
                _column_binary_desc(column_name, table.columns[column_name], body)
                for column_name, _ in TABLE_SCHEMAS[table_name]
            ]
            tables_meta.append(
                {
                    "name": table_name,
                    "n_rows": table.n_rows,
                    "columns": columns_meta,
                }
            )
        databases_meta.append(
            {"vantage_name": cdb.vantage_name, "tables": tables_meta}
        )
    meta = {
        "format": COLUMNAR_FORMAT,
        "binary_format": BINARY_FORMAT,
        "byteorder": sys.byteorder,
        "vantages": list(repository.vantages.values()),
        "databases": databases_meta,
    }
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    digest.update(meta_bytes)
    for segment in body.segments:
        digest.update(segment)
    header = _BINARY_HEADER.pack(
        BINARY_MAGIC, BINARY_FORMAT, len(meta_bytes), digest.digest()
    )
    return header + meta_bytes, body.segments, digest.hexdigest()


def write_columnar_binary(path, repository: ColumnarRepository) -> str:
    """Write ``columnar.bin`` to ``path``; returns its hex content digest."""
    head, segments, hex_digest = encode_columnar_binary(repository)
    with open(path, "wb") as handle:
        handle.write(head)
        for segment in segments:
            handle.write(segment)
    return hex_digest


def _binary_column(
    name: str, dtype: str, desc: dict, body: memoryview, n_rows: int
) -> "Column | DictColumn":
    def chunk(offset, nbytes) -> memoryview:
        offset, nbytes = int(offset), int(nbytes)
        if offset < 0 or nbytes < 0 or offset + nbytes > len(body):
            raise DataError(
                f"column {name!r}: buffer [{offset}:{offset + nbytes}] "
                f"outside binary body of {len(body)} bytes"
            )
        return body[offset : offset + nbytes]

    try:
        declared = desc["dtype"]
        expected = "dict" if dtype == "dict" else dtype
        if declared != expected:
            raise DataError(
                f"column {name!r}: binary dtype {declared!r}, "
                f"schema requires {expected!r}"
            )
        if dtype in _TYPECODES:
            buffer = chunk(desc["offset"], desc["nbytes"])
            if len(buffer) != n_rows * 8:
                raise DataError(
                    f"column {name!r}: {len(buffer)} bytes for "
                    f"{n_rows} {dtype} rows"
                )
            return Column._from_storage(
                name, dtype, buffer.cast(_TYPECODES[dtype])
            )
        if dtype == "bool":
            buffer = chunk(desc["offset"], desc["nbytes"])
            if len(buffer) != n_rows:
                raise DataError(
                    f"column {name!r}: {len(buffer)} bytes for "
                    f"{n_rows} bool rows"
                )
            return Column._from_storage(name, "bool", buffer)
        if dtype == "str":
            buffer = chunk(desc["offset"], desc["nbytes"])
            if len(buffer) != (n_rows + 1) * 8:
                raise DataError(
                    f"column {name!r}: {len(buffer)} offset bytes for "
                    f"{n_rows} str rows"
                )
            offsets = buffer.cast("Q")
            blob = chunk(desc["blob_offset"], desc["blob_nbytes"]).tobytes()
            if n_rows and (offsets[0] != 0 or offsets[n_rows] != len(blob)):
                raise DataError(f"column {name!r}: str offsets span mismatch")
            values = []
            for row in range(n_rows):
                start, end = offsets[row], offsets[row + 1]
                if end < start or end > len(blob):
                    raise DataError(
                        f"column {name!r}: str offsets not monotone"
                    )
                values.append(blob[start:end].decode("utf-8"))
            return Column._from_storage(name, "str", values)
        # dict
        buffer = chunk(desc["offset"], desc["nbytes"])
        if len(buffer) != n_rows * 4:
            raise DataError(
                f"column {name!r}: {len(buffer)} bytes for "
                f"{n_rows} dict codes"
            )
        dictionary = desc["dictionary"]
        if not isinstance(dictionary, list):
            raise DataError(f"column {name!r}: malformed binary dictionary")
        codes = buffer.cast("I")
        if n_rows and max(codes) >= len(dictionary):
            raise DataError(
                f"column {name!r}: code {max(codes)!r} outside "
                f"dictionary of {len(dictionary)} entries"
            )
        return DictColumn._from_storage(name, codes, dictionary)
    except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise DataError(
            f"malformed binary column {name!r}: {exc}"
        ) from exc


def _binary_table_loader(table_name: str, table_meta: dict, body: memoryview):
    def load() -> ColumnarTable:
        _BIN_TABLE_DECODES.inc()
        try:
            n_rows = int(table_meta["n_rows"])
            descs = {desc["name"]: desc for desc in table_meta["columns"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"malformed binary table metadata for {table_name!r}: {exc}"
            ) from exc
        columns: dict[str, Column | DictColumn] = {}
        for column_name, dtype in TABLE_SCHEMAS[table_name]:
            if column_name not in descs:
                raise DataError(
                    f"binary table {table_name!r} misses column {column_name!r}"
                )
            columns[column_name] = _binary_column(
                column_name, dtype, descs[column_name], body, n_rows
            )
        table = ColumnarTable(table_name, columns)
        if table.n_rows != n_rows:
            raise DataError(
                f"binary table {table_name!r}: declared {n_rows} rows, "
                f"columns hold {table.n_rows}"
            )
        return table

    return load


def decode_columnar_binary(
    data: bytes, *, source: str = "columnar.bin"
) -> ColumnarRepository:
    """Decode a ``columnar.bin`` buffer into a lazily-backed repository.

    The sha256 over metadata plus body is verified before anything else
    is trusted; a truncated or corrupt buffer raises :class:`DataError`.
    Tables materialise on first access (zero-copy memoryview casts over
    ``data``, which the returned columns keep alive).
    """
    if len(data) < _BINARY_HEADER.size:
        raise DataError(
            f"{source}: truncated header ({len(data)} of "
            f"{_BINARY_HEADER.size} bytes)"
        )
    magic, version, meta_length, want = _BINARY_HEADER.unpack_from(data)
    if magic != BINARY_MAGIC:
        raise DataError(f"{source}: bad magic {magic!r}")
    if version != BINARY_FORMAT:
        raise DataError(
            f"{source}: unsupported binary format {version} "
            f"(expected {BINARY_FORMAT})"
        )
    payload = memoryview(data)[_BINARY_HEADER.size :]
    if meta_length > len(payload):
        raise DataError(
            f"{source}: truncated metadata ({len(payload)} of "
            f"{meta_length} bytes)"
        )
    if hashlib.sha256(payload).digest() != want:
        raise DataError(f"{source}: content digest mismatch")
    _BIN_DIGEST_VERIFIED.inc()
    try:
        meta = json.loads(bytes(payload[:meta_length]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DataError(f"{source}: malformed metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{source}: malformed metadata (not an object)")
    if meta.get("format") != COLUMNAR_FORMAT:
        raise DataError(
            f"{source}: unsupported columnar format {meta.get('format')!r}"
        )
    if meta.get("byteorder") != sys.byteorder:
        raise DataError(
            f"{source}: byteorder {meta.get('byteorder')!r} does not match "
            f"this machine ({sys.byteorder})"
        )
    body = payload[meta_length:]
    try:
        vantage_rows = meta["vantages"]
        database_metas = meta["databases"]
        by_vantage = {
            db_meta["vantage_name"]: db_meta for db_meta in database_metas
        }
    except (KeyError, TypeError) as exc:
        raise DataError(f"{source}: malformed metadata: {exc}") from exc
    vantages: dict[str, dict] = {}
    databases: dict[str, ColumnarDatabase] = {}
    for vantage_data in vantage_rows:
        name = vantage_data.get("name") if isinstance(vantage_data, dict) else None
        if name not in by_vantage:
            raise DataError(f"{source}: misses database {name!r}")
        db_meta = by_vantage[name]
        loaders, row_counts = {}, {}
        try:
            table_metas = {t["name"]: t for t in db_meta["tables"]}
        except (KeyError, TypeError) as exc:
            raise DataError(f"{source}: malformed metadata: {exc}") from exc
        for table_name in TABLE_SCHEMAS:
            if table_name not in table_metas:
                raise DataError(
                    f"{source}: database {name!r} misses table {table_name!r}"
                )
            table_meta = table_metas[table_name]
            try:
                row_counts[table_name] = int(table_meta["n_rows"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(
                    f"{source}: malformed metadata: {exc}"
                ) from exc
            loaders[table_name] = _binary_table_loader(
                table_name, table_meta, body
            )
        vantages[name] = vantage_data
        databases[name] = LazyColumnarDatabase(name, loaders, row_counts)
    _BIN_DECODES.inc()
    return ColumnarRepository(vantages=vantages, databases=databases)


def load_columnar_binary(path) -> ColumnarRepository:
    """Read and decode ``columnar.bin`` from ``path``."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return decode_columnar_binary(data, source=str(path))
