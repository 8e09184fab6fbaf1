"""The typed-array query kernels against recorded reference output.

For every query shape the serve layer can route, the result payload
(canonical JSON), the ``data.query.*`` work-counter deltas and the
structured :class:`DataError` messages are pinned in
``tests/fixtures/golden_query_shapes.json``.  The fixture was recorded
from both the kernels and the row-at-a-time reference interpreter they
replaced, which agreed on every shape, so it stands in for that
reference.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random

import pytest

from repro import obs
from repro.data.columnar import (
    FAMILY_DICTIONARY,
    TABLE_INDEX_KEYS,
    TABLE_SCHEMAS,
    ColumnarTable,
    columnar_view,
)
from repro.data.query import (
    Aggregate,
    Filter,
    Query,
    dual_stack_sites,
    run_query,
    scan,
)
from repro.errors import DataError
from repro.monitor.database import FAULT_KINDS, TRANSITION_KINDS
from repro.net.addresses import AddressFamily

from .test_columnar import populated_db

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6

COUNTERS = (
    "data.query.scans",
    "data.query.rows_scanned",
    "data.query.index_hits",
    "data.query.groups_emitted",
)


def _snapshot() -> dict:
    registry = obs.get_registry()
    return {
        name: float(getattr(registry.get(name), "value", 0.0) or 0.0)
        for name in COUNTERS
    }


def _delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in COUNTERS}


#: every query shape the serve layer can route: each filter op over
#: i64/f64/bool/str/dict columns, index pushdown, projections, limits,
#: single- and multi-key group-aggregates with every aggregate op.
QUERIES = {
    "full-table": Query(table="downloads"),
    "index-pushdown": Query(
        table="downloads",
        where=(Filter("site_id", "eq", 1), Filter("family", "eq", V6.value)),
    ),
    "i64-ne": Query(table="downloads", where=(Filter("round", "ne", 1),)),
    "i64-lt": Query(table="downloads", where=(Filter("round", "lt", 2),)),
    "i64-le": Query(table="downloads", where=(Filter("round", "le", 1),)),
    "i64-gt": Query(table="downloads", where=(Filter("round", "gt", 0),)),
    "i64-ge": Query(table="downloads", where=(Filter("round", "ge", 2),)),
    "i64-in": Query(table="downloads", where=(Filter("round", "in", [0, 2]),)),
    "f64-gt": Query(
        table="downloads", where=(Filter("mean_speed", "gt", 105.0),)
    ),
    "bool-eq-true": Query(
        table="downloads", where=(Filter("converged", "eq", True),)
    ),
    "bool-eq-false": Query(
        table="downloads", where=(Filter("converged", "eq", False),)
    ),
    "str-eq": Query(table="dns", where=(Filter("name", "eq", "s1"),)),
    "dict-full-scan": Query(
        table="downloads", where=(Filter("family", "eq", V4.value),)
    ),
    "dict-unknown-value": Query(
        table="downloads", where=(Filter("family", "eq", "IPv9"),)
    ),
    "dict-in": Query(
        table="faults", where=(Filter("kind", "in", ["timeout", "reset"]),)
    ),
    "dict-list-values": Query(
        table="paths", where=(Filter("as_path", "eq", [10, 20, 30]),)
    ),
    "projection-limit": Query(
        table="downloads", select=("round", "mean_speed"), limit=4
    ),
    "limit-one": Query(table="downloads", limit=1),
    "group-single-key": Query(
        table="downloads",
        where=(Filter("converged", "eq", True),),
        group_by=("family",),
        aggregates=(
            Aggregate(op="count", alias="n"),
            Aggregate(op="mean", column="mean_speed"),
            Aggregate(op="min", column="round"),
            Aggregate(op="max", column="round"),
            Aggregate(op="sum", column="page_bytes"),
        ),
    ),
    "group-multi-key": Query(
        table="downloads",
        group_by=("site_id", "family"),
        aggregates=(Aggregate(op="count", alias="n"),),
    ),
    "group-empty-input": Query(
        table="downloads",
        where=(Filter("site_id", "eq", 999),),
        group_by=("family",),
        aggregates=(Aggregate(op="count", alias="n"),),
    ),
    "empty-table": Query(table="dns_counts"),
}


FIXTURE = json.loads(
    (
        pathlib.Path(__file__).parent.parent / "fixtures" / "golden_query_shapes.json"
    ).read_text(encoding="utf-8")
)


def _run(query: Query) -> tuple[str, dict]:
    cdb = columnar_view(populated_db())
    before = _snapshot()
    payload = run_query(cdb, query).to_payload()
    return json.dumps(payload, sort_keys=True), _delta(before, _snapshot())


def _error_message(query: Query) -> str:
    cdb = columnar_view(populated_db())
    with pytest.raises(DataError) as err:
        run_query(cdb, query)
    return str(err.value)


def test_fixture_covers_every_shape():
    assert sorted(FIXTURE["queries"]) == sorted(QUERIES)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_kernel_matches_reference_byte_for_byte(name):
    payload, work = _run(QUERIES[name])
    expected = FIXTURE["queries"][name]
    assert payload == expected["payload"]
    assert work == expected["work"]


def test_error_parity_for_incomparable_predicates():
    query = Query(table="downloads", where=(Filter("mean_speed", "lt", "x"),))
    message = _error_message(query)
    assert message == FIXTURE["errors"]["incomparable"]
    assert "incomparable" in message


def test_error_parity_for_incomparable_dict_predicates():
    # the dict-column truth table is built lazily, so the error still
    # surfaces on the first offending row
    query = Query(table="faults", where=(Filter("kind", "lt", 3),))
    message = _error_message(query)
    assert message == FIXTURE["errors"]["incomparable_dict"]
    assert "incomparable" in message


def test_helpers_agree_across_modes():
    assert dual_stack_sites(columnar_view(populated_db())) == (
        FIXTURE["dual_stack_sites"]
    )


# -- index probes ------------------------------------------------------------

_VOCABULARIES = {
    "family": FAMILY_DICTIONARY,
    "kind": FAULT_KINDS,
    "transition": TRANSITION_KINDS,
}


def _random_rows(name: str, n_rows: int, rng: random.Random) -> list[list]:
    """Wire rows for ``name`` with few distinct key values, in random
    order, so every prefix spans several (non-adjacent) rows."""
    def value(column: str, dtype: str):
        if dtype == "dict":
            if column in _VOCABULARIES:
                return rng.choice(_VOCABULARIES[column])
            return [10, rng.choice([20, 25]), 30]
        if dtype == "i64":
            return rng.randrange(4)
        if dtype == "f64":
            return rng.uniform(0.0, 200.0)
        if dtype == "bool":
            return rng.random() < 0.5
        return f"s{rng.randrange(3)}"

    return [
        [value(column, dtype) for column, dtype in TABLE_SCHEMAS[name]]
        for _ in range(n_rows)
    ]


def _probe_tables():
    rng = random.Random(21)
    cdb = columnar_view(populated_db(with_transitions=True))
    for name in sorted(TABLE_SCHEMAS):
        yield f"{name}-populated", cdb.table(name)
        yield f"{name}-random", ColumnarTable.from_rows(
            name, _random_rows(name, 60, rng)
        )
        yield f"{name}-empty", ColumnarTable.from_rows(name, [])


@pytest.mark.parametrize(
    "table", [pytest.param(table, id=label) for label, table in _probe_tables()]
)
def test_equal_range_matches_brute_force_for_every_prefix(table):
    keys = TABLE_INDEX_KEYS[table.name]
    index = table.index()
    columns = [table.column(key) for key in keys]
    key_rows = [
        tuple(column.raw(row) for column in columns) for row in range(table.n_rows)
    ]
    for k in range(1, len(keys) + 1):
        present = {key[:k] for key in key_rows}
        # every combination of seen values per position, plus a value no
        # row holds, so absent prefixes are probed next to present ones
        per_position = [
            sorted({key[i] for key in key_rows}) + [99] for i in range(k)
        ]
        probes = set(itertools.product(*per_position)) | present | {(99,) * k}
        for prefix in sorted(probes):
            expected = [row for row, key in enumerate(key_rows) if key[:k] == prefix]
            assert index.equal_range(prefix) == expected, (table.name, prefix)


@pytest.mark.parametrize("value", ["x", float("nan"), [1]], ids=repr)
def test_index_probe_with_a_value_no_key_equals(value):
    # an eq predicate pushed into the index agrees with Filter.matches on
    # a full scan: a value equal to no stored key selects no rows
    table = columnar_view(populated_db()).table("downloads")
    predicate = Filter("site_id", "eq", value)
    column = table.column("site_id")
    expected = [
        row for row in range(table.n_rows) if predicate.matches(column.get(row))
    ]
    assert scan(table, (predicate,)) == expected == []
