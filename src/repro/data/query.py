"""The composable query core over columnar measurement tables.

One small set of primitives — filter (:func:`scan` with predicate
pushdown into the sorted indices), projection, and group-aggregate
(:func:`run_query`) — backs the ad-hoc queries ``repro serve`` answers
over HTTP and the observers' whole-table reads.  Work is metered in
deterministic counters (``data.query.scans`` / ``rows_scanned`` /
``index_hits`` / ``groups_emitted``) that the perf-regression gates
compare exactly.

The per-site helpers (``converged_speeds``, ``mean_speed``,
``modal_as_path``, …) read the per-database series index and live in
:mod:`repro.data.series`; ``dual_stack_sites`` is re-exported here for
the benchmark pipeline, which imports it from this module.

Execution is kernelized: predicates evaluate column-at-a-time over the
raw typed storage (dictionary predicates evaluate once per distinct
code, not once per row), and projection/grouping bulk-decode via
:meth:`Column.take`.  ``tests/fixtures/golden_query_shapes.json`` pins
the result bytes, ``data.query.*`` counter deltas and structured errors
of every query shape the serving layer can route.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from ..errors import DataError
from ..obs import metrics
from .columnar import ColumnarDatabase, ColumnarTable, DictColumn
from .series import dual_stack_sites  # noqa: F401  (re-exported)

#: deterministic work counters (snapshot by the ``query`` perf workload).
_SCANS = metrics.counter("data.query.scans")
_ROWS_SCANNED = metrics.counter("data.query.rows_scanned")
_INDEX_HITS = metrics.counter("data.query.index_hits")
_GROUPS_EMITTED = metrics.counter("data.query.groups_emitted")

#: comparison operators a filter may use.
FILTER_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "in")

#: aggregate operators; all but ``count`` require a column.
AGGREGATE_OPS = ("count", "sum", "mean", "min", "max")

#: hard ceiling on rows a single query may return (serve clamps lower).
MAX_QUERY_ROWS = 100_000


@dataclass(frozen=True)
class Filter:
    """One predicate: ``column <op> value``."""

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise DataError(
                f"unknown filter op {self.op!r} (expected one of {FILTER_OPS})"
            )
        if self.op == "in" and not isinstance(self.value, (list, tuple)):
            raise DataError("filter op 'in' requires a list value")

    def matches(self, value) -> bool:
        try:
            if self.op == "eq":
                return value == self.value
            if self.op == "ne":
                return value != self.value
            if self.op == "lt":
                return value < self.value
            if self.op == "le":
                return value <= self.value
            if self.op == "gt":
                return value > self.value
            if self.op == "ge":
                return value >= self.value
            return value in self.value  # "in"
        except TypeError as exc:
            raise DataError(
                f"filter {self.column} {self.op} {self.value!r}: "
                f"incomparable with column value {value!r}"
            ) from exc


@dataclass(frozen=True)
class Aggregate:
    """One aggregate output: ``alias = op(column)``."""

    op: str
    column: str | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.op not in AGGREGATE_OPS:
            raise DataError(
                f"unknown aggregate op {self.op!r} "
                f"(expected one of {AGGREGATE_OPS})"
            )
        if self.op != "count" and self.column is None:
            raise DataError(f"aggregate {self.op!r} requires a column")

    @property
    def name(self) -> str:
        if self.alias:
            return self.alias
        return self.op if self.column is None else f"{self.op}_{self.column}"


@dataclass(frozen=True)
class Query:
    """A declarative query: filter, then project or group-aggregate."""

    table: str
    where: tuple[Filter, ...] = ()
    select: tuple[str, ...] = ()
    group_by: tuple[str, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.aggregates and not self.group_by:
            raise DataError("aggregates require group_by columns")
        if self.group_by and self.select:
            raise DataError("select and group_by are mutually exclusive")
        if self.group_by and not self.aggregates:
            raise DataError("group_by requires at least one aggregate")
        if self.limit is not None and (
            not isinstance(self.limit, int) or self.limit <= 0
        ):
            raise DataError(f"limit must be a positive integer, got {self.limit!r}")

    @classmethod
    def from_dict(cls, payload: dict) -> "Query":
        """Build a validated query from an untrusted JSON payload."""
        if not isinstance(payload, dict):
            raise DataError("query payload must be a JSON object")
        known = {"table", "where", "select", "group_by", "aggregates", "limit"}
        unknown = set(payload) - known - {"vantage"}
        if unknown:
            raise DataError(f"unknown query fields {sorted(unknown)}")
        table = payload.get("table")
        if not isinstance(table, str):
            raise DataError("query requires a 'table' string")
        filters = []
        for entry in _as_list(payload.get("where", []), "where"):
            if not isinstance(entry, dict):
                raise DataError("each 'where' entry must be an object")
            filters.append(
                Filter(
                    column=_as_str(entry.get("column"), "where.column"),
                    op=_as_str(entry.get("op"), "where.op"),
                    value=entry.get("value"),
                )
            )
        aggregates = []
        for entry in _as_list(payload.get("aggregates", []), "aggregates"):
            if not isinstance(entry, dict):
                raise DataError("each 'aggregates' entry must be an object")
            aggregates.append(
                Aggregate(
                    op=_as_str(entry.get("op"), "aggregates.op"),
                    column=entry.get("column"),
                    alias=entry.get("alias"),
                )
            )
        return cls(
            table=table,
            where=tuple(filters),
            select=tuple(_as_list(payload.get("select", []), "select")),
            group_by=tuple(_as_list(payload.get("group_by", []), "group_by")),
            aggregates=tuple(aggregates),
            limit=payload.get("limit"),
        )


def _as_list(value, label: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise DataError(f"query field {label!r} must be a list")
    return list(value)


def _as_str(value, label: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"query field {label!r} must be a string")
    return value


@dataclass
class QueryResult:
    """Columns out, plus the work accounting the perf gates consume."""

    columns: dict[str, list]
    n_rows: int
    truncated: bool = False
    stats: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "columns": self.columns,
            "n_rows": self.n_rows,
            "truncated": self.truncated,
            "stats": self.stats,
        }


# -- scanning ----------------------------------------------------------------


#: comparison callables backing the plain-column predicate kernels.
_OPERATORS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _filter_rows_kernel(
    column: "Column | DictColumn", predicate: Filter, rows: list[int]
) -> list[int]:
    """Rows surviving one predicate, evaluated over raw storage.

    Dictionary columns evaluate the predicate once per *distinct code*
    touched (memoised truth table); plain columns compare the backing
    array values directly.  On an incomparable value the structured
    :class:`DataError` of :meth:`Filter.matches` is raised — first
    offending row, its decoded value in the message.
    """
    out: list[int] = []
    append = out.append
    if isinstance(column, DictColumn):
        codes = column.codes
        dictionary = column.dictionary
        truth: dict[int, bool] = {}
        for row in rows:
            code = codes[row]
            verdict = truth.get(code)
            if verdict is None:
                verdict = predicate.matches(dictionary[code])
                truth[code] = verdict
            if verdict:
                append(row)
        return out
    values = column.values
    try:
        if predicate.op == "in":
            choices = predicate.value
            for row in rows:
                if values[row] in choices:
                    append(row)
        else:
            compare = _OPERATORS[predicate.op]
            target = predicate.value
            for row in rows:
                if compare(values[row], target):
                    append(row)
    except TypeError:
        # Re-walk through Filter.matches so the structured error
        # carries the first offending row's decoded value.
        for row in rows:
            predicate.matches(column.get(row))
        raise  # pragma: no cover - matches() always raises first
    return out


def scan(table: ColumnarTable, filters: tuple[Filter, ...] = ()) -> list[int]:
    """Matching row ids in ascending order, index-accelerated.

    Equality predicates on a prefix of the table's index keys are pushed
    into the sorted index (an equal-range probe instead of a full scan);
    the remaining predicates are evaluated per candidate row.
    """
    _SCANS.inc()
    for predicate in filters:
        table.column(predicate.column)  # unknown columns fail loudly
    eq = {
        predicate.column: predicate
        for predicate in filters
        if predicate.op == "eq"
    }
    prefix: list = []
    used: list[Filter] = []
    for key in table.index_keys:
        if key not in eq:
            break
        column = table.column(key)
        if isinstance(column, DictColumn):
            code = column.encode(eq[key].value)
            if code is None:
                return []
            prefix.append(code)
        else:
            prefix.append(eq[key].value)
        used.append(eq[key])

    if prefix:
        _INDEX_HITS.inc()
        candidates = table.index().equal_range(tuple(prefix))
        remaining = tuple(p for p in filters if p not in used)
    else:
        candidates = range(table.n_rows)
        remaining = filters

    _ROWS_SCANNED.inc(len(candidates))
    if not remaining:
        return list(candidates)
    rows = candidates if isinstance(candidates, list) else list(candidates)
    for predicate in remaining:
        rows = _filter_rows_kernel(table.column(predicate.column), predicate, rows)
        if not rows:
            break
    return rows


def gather(table: ColumnarTable, column: str, rows: list[int]) -> list:
    """Decoded values of one column for the given rows, in row order."""
    return table.column(column).take(rows)


# -- declarative execution ---------------------------------------------------


def run_query(cdb: ColumnarDatabase, query: Query) -> QueryResult:
    """Execute a :class:`Query` against one columnar database."""
    table = cdb.table(query.table)
    rows = scan(table, query.where)
    stats = {"table_rows": table.n_rows, "rows_matched": len(rows)}

    if query.group_by:
        return _group_aggregate(table, query, rows, stats)

    names = query.select or tuple(table.columns)
    for name in names:
        table.column(name)
    limit = min(query.limit or MAX_QUERY_ROWS, MAX_QUERY_ROWS)
    truncated = len(rows) > limit
    kept = rows[:limit]
    columns = {name: gather(table, name, kept) for name in names}
    return QueryResult(
        columns=columns, n_rows=len(kept), truncated=truncated, stats=stats
    )


def _group_aggregate(
    table: ColumnarTable, query: Query, rows: list[int], stats: dict
) -> QueryResult:
    key_columns = [table.column(name) for name in query.group_by]
    for aggregate in query.aggregates:
        if aggregate.column is not None:
            table.column(aggregate.column)
    groups: dict[tuple, list[int]] = {}
    decoded = [column.take(rows) for column in key_columns]
    for row, key in zip(rows, zip(*decoded)):
        groups.setdefault(key, []).append(row)
    _GROUPS_EMITTED.inc(len(groups))

    limit = min(query.limit or MAX_QUERY_ROWS, MAX_QUERY_ROWS)
    keys = list(groups)
    truncated = len(keys) > limit
    keys = keys[:limit]

    columns: dict[str, list] = {name: [] for name in query.group_by}
    for aggregate in query.aggregates:
        columns[aggregate.name] = []
    for key in keys:
        members = groups[key]
        for name, value in zip(query.group_by, key):
            columns[name].append(value)
        for aggregate in query.aggregates:
            columns[aggregate.name].append(
                _aggregate_value(table, aggregate, members)
            )
    stats["groups_emitted"] = len(groups)
    return QueryResult(
        columns=columns, n_rows=len(keys), truncated=truncated, stats=stats
    )


def _aggregate_value(table: ColumnarTable, aggregate: Aggregate, rows: list[int]):
    if aggregate.op == "count":
        return len(rows)
    values = gather(table, aggregate.column, rows)
    if aggregate.op == "sum":
        return sum(values)
    if aggregate.op == "mean":
        return sum(values) / len(values) if values else None
    if aggregate.op == "min":
        return min(values) if values else None
    return max(values) if values else None  # "max"
