"""Per-(site, family) series of one columnar database, built once.

The paper's findings are read from per-(site, family) series: the
Table 3 screen runs over a site's converged speeds, H1/H2 compare mean
v6 and v4 speeds, and Tables 7 and 9 bucket the modal AS path's hop
count.  :func:`series_index` groups a :class:`ColumnarDatabase`'s
``downloads`` and ``paths`` tables into those series in one pass per
table, on first use, and memoises the result on the database object, so
the analysis passes, the observer panel and the per-site accessors at
the end of this module share one build per (table, vantage).  A
columnar database is immutable once built (a write buffer freezes into
a new one), so the memo never goes stale.  The module ends with the
per-database tallies of Table 2, Fig 1 and the transition split.

Rows keep ascending row id — the monitor's insertion (round) order —
inside every series and every per-round group, so each float sum runs
and each tie-break falls in round order.
``data.series.builds`` counts table builds.  The dual-stack population
alone (what a cold store load asks for) comes from whole-column filters
and builds no series.

The index lives as long as its database (a served campaign, a loaded
store entry), so it keeps summaries rather than row objects: series are
keyed by family, then site id (no key tuples), a download series is a
slice of two typed arrays, and a per-round group is kept as its mean or
its hop histogram.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from itertools import compress
from typing import NamedTuple

from ..net.addresses import AddressFamily
from ..obs import metrics
from .columnar import ColumnarDatabase, ColumnarTable

_BUILDS = metrics.counter("data.series.builds")


class DownloadSeries(NamedTuple):
    """One (site, family)'s converged downloads, in round order."""

    rounds: array  # of int
    speeds: array  # of float

    @property
    def mean_speed(self) -> float:
        """Summed in round order, as ``analysis.metrics.site_mean_speed``."""
        return sum(self.speeds) / len(self.speeds)


class PathSeries(NamedTuple):
    """One (site, family)'s recorded AS paths, summarised."""

    n_rows: int
    #: destination AS of the latest row.
    dest_asn: int
    #: the most frequently observed path (ties: latest wins).
    modal_path: tuple[int, ...]
    #: rounds at which the path differed from the previous row's.
    change_rounds: tuple[int, ...]


def _families(column) -> list[AddressFamily]:
    """The family column's dictionary, decoded once per code."""
    return [AddressFamily(value) for value in column.dictionary]


def _both_families(sites: dict[AddressFamily, set[int]]) -> list[int]:
    return sorted(
        sites.get(AddressFamily.IPV4, set()) & sites.get(AddressFamily.IPV6, set())
    )


class DownloadIndex:
    """The converged rows of ``downloads``, grouped two ways.

    * by (site, family): ``rounds`` and ``speeds`` hold the rows one
      series after another, and ``spans[family][site_id]`` is a series'
      ``(lo, hi)`` slice of them — read it with :meth:`series`;
    * ``round_means`` — (round, family) -> mean speed, summed in row
      order.
    """

    __slots__ = ("rounds", "speeds", "spans", "round_means")

    def __init__(self, table: ColumnarTable) -> None:
        _BUILDS.inc()
        family_column = table.column("family")
        families = _families(family_column)
        # per family code: site_id -> (rounds, speeds) while grouping
        runs: list[dict[int, tuple[list[int], list[float]]]] = [
            {} for _ in families
        ]
        by_round = [defaultdict(list) for _ in families]
        # A (site, family)'s rows are usually one contiguous run, so the
        # series lookup happens once per run rather than once per row.
        run_site = run_code = None
        for site_id, code, converged, round_idx, speed in zip(
            table.column("site_id").values,
            family_column.codes,
            table.column("converged").values,
            table.column("round").values,
            table.column("mean_speed").values,
        ):
            if not converged:
                continue
            if site_id != run_site or code != run_code:
                run_site, run_code = site_id, code
                current = runs[code].get(site_id)
                if current is None:
                    current = runs[code][site_id] = ([], [])
                append_round = current[0].append
                append_speed = current[1].append
                round_groups = by_round[code]
            append_round(round_idx)
            append_speed(speed)
            round_groups[round_idx].append(speed)

        rounds: list[int] = []
        speeds: list[float] = []
        self.spans: dict[AddressFamily, dict[int, tuple[int, int]]] = {
            family: {} for family in AddressFamily
        }
        hi = 0
        for family, by_site in zip(families, runs):
            spans = self.spans[family]
            for site_id, (site_rounds, site_speeds) in by_site.items():
                lo = hi
                rounds += site_rounds
                speeds += site_speeds
                hi = len(rounds)
                spans[site_id] = (lo, hi)
        self.rounds = array("q", rounds)
        self.speeds = array("d", speeds)
        self.round_means: dict[tuple[int, AddressFamily], float] = {
            (round_idx, family): sum(group) / len(group)
            for family, groups in zip(families, by_round)
            for round_idx, group in groups.items()
        }

    def series(self, site_id: int, family: AddressFamily) -> DownloadSeries | None:
        span = self.spans[family].get(site_id)
        if span is None:
            return None
        lo, hi = span
        return DownloadSeries(self.rounds[lo:hi], self.speeds[lo:hi])


class PathIndex:
    """Every row of ``paths``, grouped two ways.

    * ``by_family`` — family -> site_id -> :class:`PathSeries` (read one
      with :meth:`series`);
    * ``round_hops`` — (round, family) -> {apparent AS hops
      (``len(path) - 1``): rows};
    * ``dual_stack_sites`` — sites with paths in both families, ascending.
    """

    __slots__ = ("by_family", "round_hops", "dual_stack_sites")

    def __init__(self, table: ColumnarTable) -> None:
        _BUILDS.inc()
        family_column = table.column("family")
        families = _families(family_column)
        path_column = table.column("as_path")
        paths = [tuple(path) for path in path_column.dictionary]
        rounds = table.column("round").values
        path_codes = path_column.codes
        # per family code: site_id -> [rounds, path codes, latest dest_asn]
        runs: list[dict[int, list]] = [{} for _ in families]
        run_site = run_code = None
        for site_id, code, round_idx, dest_asn, path_code in zip(
            table.column("site_id").values,
            family_column.codes,
            rounds,
            table.column("dest_asn").values,
            path_codes,
        ):
            if site_id != run_site or code != run_code:
                run_site, run_code = site_id, code
                current = runs[code].get(site_id)
                if current is None:
                    current = runs[code][site_id] = [[], [], None]
                append_round = current[0].append
                append_code = current[1].append
            append_round(round_idx)
            append_code(path_code)
            current[2] = dest_asn

        self.by_family: dict[AddressFamily, dict[int, PathSeries]] = {
            family: {} for family in AddressFamily
        }
        for family, by_site in zip(families, runs):
            summaries = self.by_family[family]
            for site_id, (site_rounds, codes, dest_asn) in by_site.items():
                latest = codes[-1]
                if codes.count(latest) == len(codes):
                    modal, changes = latest, ()
                else:
                    changes = tuple(
                        round_idx
                        for round_idx, prev, cur in zip(
                            site_rounds[1:], codes, codes[1:]
                        )
                        if prev != cur
                    )
                    counts = Counter(codes)
                    best = max(counts.values())
                    modal = next(c for c in reversed(codes) if counts[c] == best)
                summaries[site_id] = PathSeries(
                    len(codes), dest_asn, paths[modal], changes
                )

        self.round_hops: dict[tuple[int, AddressFamily], dict[int, int]] = {}
        for (round_idx, code, path_code), n in Counter(
            zip(rounds, family_column.codes, path_codes)
        ).items():
            hops = self.round_hops.setdefault((round_idx, families[code]), {})
            length = len(paths[path_code]) - 1
            hops[length] = hops.get(length, 0) + n
        self.dual_stack_sites = _both_families(
            {family: set(by_site) for family, by_site in self.by_family.items()}
        )

    def series(self, site_id: int, family: AddressFamily) -> PathSeries | None:
        return self.by_family[family].get(site_id)


def _converged_dual_stack(table: ColumnarTable) -> list[int]:
    """Sites with converged ``downloads`` rows in both families.

    Sets of site ids per family, from whole-column filters: no object per
    (site, family), so a cold load that needs only this population does
    not grow the heap the cyclic collector scans.
    """
    family_column = table.column("family")
    families = _families(family_column)
    converged = table.column("converged").values
    codes = list(compress(family_column.codes, converged))
    sites = list(compress(table.column("site_id").values, converged))
    return _both_families({
        families[code]: set(compress(sites, map(code.__eq__, codes)))
        for code in set(codes)
    })


class SeriesIndex:
    """One database's series, each part built on first use."""

    __slots__ = ("_tables", "_dual_stack_sites", "_downloads", "_paths")

    def __init__(self, cdb: ColumnarDatabase) -> None:
        # The table map, not the database: the database holds this index,
        # and a reference back would make the pair a cycle that only the
        # cyclic collector frees (keeping a loaded entry's buffers alive).
        self._tables = cdb.tables
        self._dual_stack_sites: list[int] | None = None
        self._downloads: DownloadIndex | None = None
        self._paths: PathIndex | None = None

    @property
    def dual_stack_sites(self) -> list[int]:
        """Sites with converged downloads in both families (the Table 2
        population), ascending."""
        if self._dual_stack_sites is None:
            self._dual_stack_sites = _converged_dual_stack(
                self._tables["downloads"]
            )
        return self._dual_stack_sites

    @property
    def downloads(self) -> DownloadIndex:
        if self._downloads is None:
            self._downloads = DownloadIndex(self._tables["downloads"])
        return self._downloads

    @property
    def paths(self) -> PathIndex:
        if self._paths is None:
            self._paths = PathIndex(self._tables["paths"])
        return self._paths


def series_index(cdb: ColumnarDatabase) -> SeriesIndex:
    """The series index memoised on ``cdb``."""
    index = cdb._series
    if index is None:
        index = cdb._series = SeriesIndex(cdb)
    return index


# -- per-site accessors ---------------------------------------------------------


def converged_speeds(
    cdb: ColumnarDatabase, site_id: int, family: AddressFamily
) -> list[float]:
    """Per-round mean speeds in round order (converged rounds only)."""
    series = series_index(cdb).downloads.series(site_id, family)
    return series.speeds.tolist() if series else []


def download_rounds(
    cdb: ColumnarDatabase, site_id: int, family: AddressFamily
) -> list[int]:
    """Round indices of the converged downloads, in round order."""
    series = series_index(cdb).downloads.series(site_id, family)
    return series.rounds.tolist() if series else []


def mean_speed(
    cdb: ColumnarDatabase, site_id: int, family: AddressFamily
) -> float | None:
    """Mean of the converged per-round speeds (summed in round order), or
    None without data."""
    series = series_index(cdb).downloads.series(site_id, family)
    return series.mean_speed if series else None


def dest_asn(
    cdb: ColumnarDatabase, site_id: int, family: AddressFamily
) -> int | None:
    """Destination AS of the site's address in ``family`` (latest row)."""
    series = series_index(cdb).paths.series(site_id, family)
    return series.dest_asn if series else None


def modal_as_path(
    cdb: ColumnarDatabase, site_id: int, family: AddressFamily
) -> tuple[int, ...] | None:
    """The most frequently observed AS path (ties: latest wins)."""
    series = series_index(cdb).paths.series(site_id, family)
    return series.modal_path if series else None


def path_change_rounds(
    cdb: ColumnarDatabase, site_id: int, family: AddressFamily
) -> list[int]:
    """Rounds at which the observed AS path differed from the previous."""
    series = series_index(cdb).paths.series(site_id, family)
    return list(series.change_rounds) if series else []


def dual_stack_sites(cdb: ColumnarDatabase) -> list[int]:
    """Sites with converged download data in both families — the Table 2
    population, ascending."""
    return list(series_index(cdb).dual_stack_sites)


# -- per-database tallies (Table 2, Fig 1, the transition split) ---------------


def destination_ases(cdb: ColumnarDatabase, family: AddressFamily) -> set[int]:
    """Distinct destination ASes (each site's latest) across measured
    sites (Table 2)."""
    return {
        series.dest_asn
        for series in series_index(cdb).paths.by_family[family].values()
    }


def ases_crossed(cdb: ColumnarDatabase, family: AddressFamily) -> set[int]:
    """All ASes on any observed ``family`` path, destination included
    (Table 2); the vantage point's own AS is not counted as crossed."""
    table = cdb.table("paths")
    family_column = table.column("family")
    code = family_column.encode(family.value)
    path_column = table.column("as_path")
    crossed: set[int] = set()
    if code is None:
        return crossed
    in_family = map(code.__eq__, family_column.codes)
    for path_code in set(compress(path_column.codes, in_family)):
        crossed.update(path_column.dictionary[path_code][1:])
    return crossed


def v6_reachability(cdb: ColumnarDatabase, round_idx: int) -> float:
    """AAAA share among the round's *top-list* queries (Fig 1's metric).

    Previously-seen and externally-imported sites keep being monitored
    but do not enter this fraction, matching the paper's definition over
    the current top list; a round without queries reads 0.
    """
    table = cdb.table("dns_counts")
    for row in table.index().equal_range((round_idx,)):
        queried = table.column("queried").get(row)
        return table.column("with_aaaa").get(row) / queried if queried else 0.0
    return 0.0


def transition_counts(cdb: ColumnarDatabase) -> dict[str, int]:
    """IPv6 transition-kind row counts over the whole campaign."""
    column = cdb.table("transitions").column("transition")
    return {
        column.dictionary[code]: n for code, n in Counter(column.codes).items()
    }
