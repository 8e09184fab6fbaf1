"""Query core: predicates, pushdown, group-aggregate; series-index parity."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro import obs
from repro.analysis.metrics import site_mean_speed
from repro.config import small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.data import query, series
from repro.data.columnar import (
    ColumnarDatabase,
    ColumnarRepository,
    ColumnarTable,
    columnar_view,
    decode_columnar_binary,
    encode_columnar_binary,
)
from repro.data.query import Aggregate, Filter, Query, run_query, scan
from repro.data.series import (
    converged_speeds,
    dest_asn,
    download_rounds,
    dual_stack_sites,
    mean_speed,
    modal_as_path,
    path_change_rounds,
    series_index,
)
from repro.errors import DataError
from repro.faults import fault_preset
from repro.net.addresses import AddressFamily

from .test_columnar import populated_db

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def _counter(name: str) -> float:
    metric = obs.get_registry().get(name)
    return float(getattr(metric, "value", 0.0) or 0.0)


# -- scan --------------------------------------------------------------------


def test_scan_without_filters_returns_every_row():
    table = columnar_view(populated_db()).table("downloads")
    assert scan(table) == list(range(table.n_rows))


def test_scan_filters_and_preserves_round_order():
    cdb = columnar_view(populated_db())
    table = cdb.table("downloads")
    rows = scan(
        table,
        (
            Filter("site_id", "eq", 1),
            Filter("family", "eq", V6.value),
            Filter("converged", "eq", True),
        ),
    )
    assert [table.column("round").get(r) for r in rows] == [0, 2]


def test_scan_pushes_eq_prefix_into_index():
    cdb = columnar_view(populated_db())
    table = cdb.table("downloads")
    before_hits = _counter("data.query.index_hits")
    before_rows = _counter("data.query.rows_scanned")
    rows = scan(table, (Filter("site_id", "eq", 1), Filter("family", "eq", V4.value)))
    assert len(rows) == 3
    assert _counter("data.query.index_hits") == before_hits + 1
    # the index probe examined only the equal range, not the whole table
    assert _counter("data.query.rows_scanned") == before_rows + 3


def test_scan_full_scan_counts_every_row():
    cdb = columnar_view(populated_db())
    table = cdb.table("downloads")
    before_hits = _counter("data.query.index_hits")
    before_rows = _counter("data.query.rows_scanned")
    scan(table, (Filter("converged", "eq", True),))
    assert _counter("data.query.index_hits") == before_hits
    assert _counter("data.query.rows_scanned") == before_rows + table.n_rows


def test_scan_unknown_dictionary_value_matches_nothing():
    table = columnar_view(populated_db()).table("downloads")
    assert scan(table, (Filter("site_id", "eq", 1), Filter("family", "eq", "IPv9"))) == []


def test_scan_unknown_column_fails_loudly():
    table = columnar_view(populated_db()).table("downloads")
    with pytest.raises(DataError, match="no column"):
        scan(table, (Filter("nope", "eq", 1),))


def test_filter_ops():
    table = columnar_view(populated_db()).table("downloads")
    le = scan(table, (Filter("round", "le", 1),))
    ge = scan(table, (Filter("round", "ge", 1),))
    ne = scan(table, (Filter("round", "ne", 1),))
    isin = scan(table, (Filter("round", "in", [0, 2]),))
    assert set(le) | set(ge) == set(range(table.n_rows))
    assert sorted(ne) == sorted(isin)
    with pytest.raises(DataError, match="unknown filter op"):
        Filter("round", "between", 1)
    with pytest.raises(DataError, match="requires a list"):
        Filter("round", "in", 1)


# -- run_query ---------------------------------------------------------------


def test_projection_with_limit_and_truncation():
    cdb = columnar_view(populated_db())
    result = run_query(
        cdb,
        Query(table="downloads", select=("round", "mean_speed"), limit=4),
    )
    assert result.n_rows == 4
    assert result.truncated is True
    assert set(result.columns) == {"round", "mean_speed"}
    assert result.stats["rows_matched"] == 6


def test_group_aggregate():
    cdb = columnar_view(populated_db())
    result = run_query(
        cdb,
        Query(
            table="downloads",
            where=(Filter("converged", "eq", True),),
            group_by=("family",),
            aggregates=(
                Aggregate(op="count", alias="n"),
                Aggregate(op="mean", column="mean_speed"),
                Aggregate(op="max", column="round"),
            ),
        ),
    )
    by_family = dict(zip(result.columns["family"], result.columns["n"]))
    assert by_family == {V4.value: 2, V6.value: 2}
    assert result.columns["mean_mean_speed"] == [101.0, 111.0]
    assert result.stats["groups_emitted"] == 2


def test_query_validation():
    with pytest.raises(DataError, match="require group_by"):
        Query(table="downloads", aggregates=(Aggregate(op="count"),))
    with pytest.raises(DataError, match="mutually exclusive"):
        Query(
            table="downloads",
            select=("round",),
            group_by=("family",),
            aggregates=(Aggregate(op="count"),),
        )
    with pytest.raises(DataError, match="at least one aggregate"):
        Query(table="downloads", group_by=("family",))
    with pytest.raises(DataError, match="positive integer"):
        Query(table="downloads", limit=0)
    with pytest.raises(DataError, match="requires a column"):
        Aggregate(op="mean")


def test_query_from_dict_validates_untrusted_payloads():
    query = Query.from_dict(
        {
            "table": "downloads",
            "vantage": "T",  # serve's routing key; tolerated here
            "where": [{"column": "site_id", "op": "eq", "value": 1}],
            "group_by": ["family"],
            "aggregates": [{"op": "count", "alias": "n"}],
        }
    )
    assert query.table == "downloads"
    assert query.where[0].value == 1

    with pytest.raises(DataError, match="unknown query fields"):
        Query.from_dict({"table": "downloads", "order_by": ["round"]})
    with pytest.raises(DataError, match="'table' string"):
        Query.from_dict({"table": 7})
    with pytest.raises(DataError, match="must be a list"):
        Query.from_dict({"table": "downloads", "where": "site_id=1"})
    with pytest.raises(DataError, match="must be an object"):
        Query.from_dict({"table": "downloads", "where": ["site_id=1"]})


# -- series index: helper parity with the wire rows --------------------------


def _all_series(index) -> tuple[dict, dict]:
    """Every download and path series of ``index``, by (site, family)."""
    downloads, paths = index.downloads, index.paths
    return (
        {
            (site_id, family): downloads.series(site_id, family)
            for family, spans in downloads.spans.items()
            for site_id in spans
        },
        {
            (site_id, family): series
            for family, by_site in paths.by_family.items()
            for site_id, series in by_site.items()
        },
    )


class _Rows:
    """The brute-force reading of one database's wire rows: each helper's
    definition, computed row by row."""

    def __init__(self, cdb) -> None:
        self.downloads: dict = {}
        self.paths: dict = {}
        for site_id, family, round_idx, _, speed, _, converged, _, _ in (
            cdb.table("downloads").rows()
        ):
            self.downloads.setdefault((site_id, AddressFamily(family)), []).append(
                (round_idx, speed, converged)
            )
        for site_id, family, round_idx, dest, path in cdb.table("paths").rows():
            self.paths.setdefault((site_id, AddressFamily(family)), []).append(
                (round_idx, dest, tuple(path))
            )

    def speeds(self, site_id, family) -> list[float]:
        rows = self.downloads.get((site_id, family), [])
        return [speed for _, speed, converged in rows if converged]

    def download_rounds(self, site_id, family) -> list[int]:
        rows = self.downloads.get((site_id, family), [])
        return [round_idx for round_idx, _, converged in rows if converged]

    def mean_speed(self, site_id, family) -> float | None:
        speeds = self.speeds(site_id, family)
        return sum(speeds) / len(speeds) if speeds else None

    def dest_asn(self, site_id, family) -> int | None:
        rows = self.paths.get((site_id, family), [])
        return rows[-1][1] if rows else None

    def as_path(self, site_id, family) -> tuple[int, ...] | None:
        paths = [path for _, _, path in self.paths.get((site_id, family), [])]
        if not paths:
            return None
        best = max(paths.count(path) for path in paths)
        return next(p for p in reversed(paths) if paths.count(p) == best)

    def path_change_rounds(self, site_id, family) -> list[int]:
        rows = self.paths.get((site_id, family), [])
        return [cur[0] for prev, cur in zip(rows, rows[1:]) if prev[2] != cur[2]]

    def dual_stack_sites(self) -> list[int]:
        return sorted({
            site_id
            for site_id, _ in self.downloads
            if self.speeds(site_id, V4) and self.speeds(site_id, V6)
        })


def _assert_series_parity(cdb) -> None:
    """Every (site, family) of ``cdb``: each helper equals its row-by-row
    definition, and the index's groups equal what the rows say."""
    rows = _Rows(cdb)
    index = series_index(cdb)
    sites = {site_id for site_id, _ in rows.downloads} | {
        site_id for site_id, _ in rows.paths
    }
    for site_id in sorted(sites) + [max(sites, default=0) + 1]:
        for family in (V4, V6):
            assert converged_speeds(cdb, site_id, family) == rows.speeds(
                site_id, family
            )
            assert download_rounds(cdb, site_id, family) == rows.download_rounds(
                site_id, family
            )
            assert mean_speed(cdb, site_id, family) == rows.mean_speed(
                site_id, family
            )
            assert site_mean_speed(cdb, site_id, family) == rows.mean_speed(
                site_id, family
            )
            assert dest_asn(cdb, site_id, family) == rows.dest_asn(site_id, family)
            assert modal_as_path(cdb, site_id, family) == rows.as_path(
                site_id, family
            )
            assert path_change_rounds(
                cdb, site_id, family
            ) == rows.path_change_rounds(site_id, family)
    download_series, path_series = _all_series(index)
    assert set(download_series) == {
        key
        for key, series_rows in rows.downloads.items()
        if any(converged for _, _, converged in series_rows)
    }
    assert set(path_series) == set(rows.paths)
    assert dual_stack_sites(cdb) == rows.dual_stack_sites()
    path_families = {family: set() for family in (V4, V6)}
    round_hops: dict = {}
    for (site_id, family), series_rows in rows.paths.items():
        path_families[family].add(site_id)
        for round_idx, _, path in series_rows:
            hops = round_hops.setdefault((round_idx, family), {})
            length = len(path) - 1
            hops[length] = hops.get(length, 0) + 1
    assert index.paths.dual_stack_sites == sorted(
        path_families[V4] & path_families[V6]
    )
    assert index.paths.round_hops == round_hops
    # the per-round means equal the query core's group-aggregate
    result = run_query(
        cdb,
        Query(
            table="downloads",
            where=(Filter("converged", "eq", True),),
            group_by=("round", "family"),
            aggregates=(Aggregate(op="mean", column="mean_speed"),),
        ),
    )
    assert index.downloads.round_means == {
        (round_idx, AddressFamily(family)): mean
        for round_idx, family, mean in zip(
            result.columns["round"],
            result.columns["family"],
            result.columns["mean_mean_speed"],
        )
    }


def test_helpers_match_row_object_methods():
    _assert_series_parity(populated_db(with_transitions=True).freeze())


def test_helper_parity_on_campaign(small_campaign):
    for _, db in small_campaign.repository.items():
        _assert_series_parity(db)


def test_helper_parity_on_heavy_dns64_campaign():
    cfg = small_config(seed=11, scale=0.06)
    cfg = dataclasses.replace(
        cfg,
        faults=fault_preset("heavy"),
        dns64=dataclasses.replace(cfg.dns64, enabled=True),
    )
    campaign = run_campaign(build_world(cfg))
    assert sum(db.table("faults").n_rows for _, db in campaign.repository.items())
    assert sum(
        db.table("transitions").n_rows for _, db in campaign.repository.items()
    )
    for _, db in campaign.repository.items():
        _assert_series_parity(db)


def test_series_index_edge_cases():
    from repro.monitor.database import (
        DownloadObservation,
        MeasurementDatabase,
        PathObservation,
    )

    def download(site_id, round_idx, family, converged):
        return DownloadObservation(
            site_id=site_id, round_idx=round_idx, family=family, n_samples=3,
            mean_speed=10.0 + round_idx, ci_half_width=0.5,
            converged=converged, page_bytes=100, timestamp=float(round_idx),
        )

    db = MeasurementDatabase(vantage_name="T")
    for round_idx in range(4):
        # site 1: IPv4 never converges, IPv6 always does
        db.add_downloads([
            download(1, round_idx, V4, converged=False),
            download(1, round_idx, V6, converged=True),
            # site 2: seen over IPv4 only
            download(2, round_idx, V4, converged=True),
        ])
        db.add_paths([PathObservation(2, round_idx, V4, dest_asn=7, as_path=(5, 7))])
    cdb = db.freeze()
    _assert_series_parity(cdb)
    assert converged_speeds(cdb, 1, V4) == [] and mean_speed(cdb, 1, V4) is None
    assert series_index(cdb).downloads.series(1, V4) is None
    assert download_rounds(cdb, 1, V6) == [0, 1, 2, 3]
    assert dual_stack_sites(cdb) == []
    assert dest_asn(cdb, 2, V4) == 7 and dest_asn(cdb, 2, V6) is None
    assert series_index(cdb).paths.dual_stack_sites == []

    empty = MeasurementDatabase(vantage_name="E").freeze()
    index = series_index(empty)
    assert _all_series(index) == ({}, {})
    assert index.downloads.round_means == {} and index.paths.round_hops == {}
    assert dual_stack_sites(empty) == []
    assert mean_speed(empty, 1, V4) is None and modal_as_path(empty, 1, V4) is None


def test_series_index_rows_of_a_series_need_not_be_contiguous():
    cdb = populated_db().freeze()
    tables = dict(cdb.tables)
    for table in ("downloads", "paths"):  # round order interleaves families
        rows = sorted(cdb.table(table).rows(), key=lambda row: row[2])
        tables[table] = ColumnarTable.from_rows(table, rows)
    interleaved = series_index(ColumnarDatabase("T", tables))
    grouped = series_index(cdb)
    assert _all_series(interleaved) == _all_series(grouped)
    assert interleaved.downloads.round_means == grouped.downloads.round_means
    assert interleaved.paths.round_hops == grouped.paths.round_hops


def test_series_index_builds_once_per_table():
    builds = obs.get_registry().counter("data.series.builds")
    cdb = columnar_view(populated_db())
    before = builds.value
    assert dual_stack_sites(cdb) == [1]
    assert builds.value == before  # the population alone builds no series
    for _ in range(3):
        dual_stack_sites(cdb)
        mean_speed(cdb, 1, V4)
    assert builds.value - before == 1
    for _ in range(3):
        modal_as_path(cdb, 1, V4)
        path_change_rounds(cdb, 1, V6)
    assert builds.value - before == 2
    assert series_index(cdb) is series_index(cdb)


def test_query_module_reexports_the_per_site_helpers():
    # Only the helper the benchmark pipeline imports from here.
    assert query.dual_stack_sites is series.dual_stack_sites
    assert not hasattr(query, "converged_speeds")


def test_series_index_does_not_keep_its_database_alive():
    """Reference counting alone frees a database and its index: a loaded
    store entry's column buffers must not wait for the cyclic collector."""
    cdb = populated_db().freeze()
    dual_stack_sites(cdb)
    modal_as_path(cdb, 1, V4)
    ref = weakref.ref(cdb)
    gc.disable()
    try:
        del cdb
        assert ref() is None
    finally:
        gc.enable()


def test_series_index_over_decoded_binary_columns(small_campaign):
    repository = ColumnarRepository.from_repository(small_campaign.repository)
    head, segments, _ = encode_columnar_binary(repository)
    decoded = decode_columnar_binary(head + b"".join(bytes(s) for s in segments))
    for name, cdb in repository.databases.items():
        index, loaded = series_index(cdb), series_index(decoded.databases[name])
        assert _all_series(loaded) == _all_series(index)
        assert loaded.downloads.round_means == index.downloads.round_means
        assert loaded.paths.round_hops == index.paths.round_hops


def test_modal_path_tie_break_latest_wins():
    from repro.monitor.database import MeasurementDatabase, PathObservation

    db = MeasurementDatabase(vantage_name="T")
    for round_idx, path in enumerate([(1, 2), (3, 4), (3, 4), (1, 2)]):
        db.add_paths([PathObservation(1, round_idx, V4, dest_asn=9, as_path=path)])
    cdb = db.freeze()
    _assert_series_parity(cdb)
    assert modal_as_path(cdb, 1, V4) == _Rows(cdb).as_path(1, V4) == (1, 2)
    assert path_change_rounds(cdb, 1, V4) == [1, 3]
