"""The measurement data subsystem: columnar store, query core, serving.

The paper's §5.5 promises public access to the measurement data; this
package is the reproduction's delivery of that promise at system scale.
Four layers:

* :mod:`repro.data.columnar` — struct-of-arrays encodings of every
  measurement table with dictionary-encoded AS paths and sorted indices:
  the campaign's one data model from shard end to disk, and the
  ``columnar.bin`` campaign-store artifact (bit-identical round trips).
* :mod:`repro.data.query` — filter / project / group-aggregate
  primitives with predicate pushdown, behind the ad-hoc queries served
  over HTTP.
* :mod:`repro.data.series` — per-(site, family) series of a columnar
  database, built once per table and memoised, plus the per-site and
  per-database rules (mean speed, modal path, dual-stack population,
  Fig 1 reachability, ...) that the analysis, the experiments and the
  observer panel read.
* :mod:`repro.data.serve` — the stdlib-only ``repro serve`` JSON API
  over the campaign store (imported lazily by the CLI; not re-exported
  here to keep ``repro.data`` importable from the engine's store).
"""

from .columnar import (
    COLUMNAR_FORMAT,
    Column,
    ColumnarDatabase,
    ColumnarRepository,
    ColumnarTable,
    DictColumn,
    SortedIndex,
    columnar_view,
)
from .query import (
    Aggregate,
    Filter,
    Query,
    QueryResult,
    run_query,
    scan,
)

__all__ = [
    "COLUMNAR_FORMAT",
    "Aggregate",
    "Column",
    "ColumnarDatabase",
    "ColumnarRepository",
    "ColumnarTable",
    "DictColumn",
    "Filter",
    "Query",
    "QueryResult",
    "SortedIndex",
    "columnar_view",
    "run_query",
    "scan",
]
