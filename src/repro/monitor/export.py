"""Measurement data export.

The paper's Section 5.5 laments that "the currently limited public access
to its data ... would obviously be required to allow independent
validation of the findings" and promises a public repository.  This
module delivers that for the reproduction: every table of a
:class:`~repro.data.columnar.ColumnarDatabase` exports to CSV, and
a whole repository exports to a directory tree (one folder per vantage
point) plus a JSON manifest.
"""

from __future__ import annotations

import csv
import json
import pathlib
from collections import Counter
from typing import Iterable

from ..data.columnar import ColumnarDatabase
from ..errors import MonitorError
from .aggregate import CentralRepository

#: schema version written into manifests, bumped on format changes.
EXPORT_FORMAT_VERSION = 1


def _write_csv(path: pathlib.Path, header: Iterable[str], rows) -> int:
    count = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def _rows(db: ColumnarDatabase, table: str, *columns: str):
    """Each row's decoded values of ``columns``, in row order."""
    source = db.table(table)
    return zip(*(source.column(name).values_list() for name in columns))


def _by_key(rows, width: int) -> list:
    """``rows`` ordered by their first ``width`` values; rows of one key
    keep their (round) order."""
    return sorted(rows, key=lambda row: row[:width])


def export_downloads_csv(db: ColumnarDatabase, path: pathlib.Path) -> int:
    """Write the download-statistics table; returns the row count."""
    rows = _rows(
        db, "downloads", "site_id", "family", "round", "n_samples",
        "mean_speed", "ci_half_width", "converged", "page_bytes", "timestamp",
    )
    return _write_csv(
        path,
        (
            "site_id", "family", "round", "n_samples", "mean_speed_kbps",
            "ci_half_width", "converged", "page_bytes", "timestamp",
        ),
        (
            (
                site_id, family, round_idx, n_samples, f"{mean_speed:.4f}",
                f"{ci_half_width:.4f}", int(converged), page_bytes,
                f"{timestamp:.1f}",
            )
            for (
                site_id, family, round_idx, n_samples, mean_speed,
                ci_half_width, converged, page_bytes, timestamp,
            ) in _by_key(rows, 2)
        ),
    )


def export_paths_csv(db: ColumnarDatabase, path: pathlib.Path) -> int:
    """Write the AS-path table; paths are space-separated ASNs."""
    rows = _rows(db, "paths", "site_id", "family", "round", "dest_asn", "as_path")
    return _write_csv(
        path,
        ("site_id", "family", "round", "dest_asn", "as_path"),
        (
            (site_id, family, round_idx, dest_asn, " ".join(map(str, as_path)))
            for site_id, family, round_idx, dest_asn, as_path in _by_key(rows, 2)
        ),
    )


def export_dns_csv(db: ColumnarDatabase, path: pathlib.Path) -> int:
    """Write per-round DNS counters (the Fig 1 series source)."""
    rows = _rows(db, "dns_counts", "round", "queried", "with_a", "with_aaaa")
    return _write_csv(
        path, ("round", "queried", "with_a", "with_aaaa"), _by_key(rows, 1)
    )


def export_page_checks_csv(db: ColumnarDatabase, path: pathlib.Path) -> int:
    """Write the page-identity check table."""
    rows = _rows(
        db, "page_checks", "site_id", "round", "v4_bytes", "v6_bytes", "identical"
    )
    return _write_csv(
        path,
        ("site_id", "round", "v4_bytes", "v6_bytes", "identical"),
        (
            (site_id, round_idx, v4_bytes, v6_bytes, int(identical))
            for site_id, round_idx, v4_bytes, v6_bytes, identical
            in _by_key(rows, 1)
        ),
    )


def export_faults_csv(db: ColumnarDatabase, path: pathlib.Path) -> int:
    """Write per-round failure counters, one row per (round, family, kind)."""
    counts = Counter(_rows(db, "faults", "round", "family", "kind"))
    return _write_csv(
        path,
        ("round", "family", "kind", "count"),
        ((*key, counts[key]) for key in sorted(counts)),
    )


def export_transitions_csv(db: ColumnarDatabase, path: pathlib.Path) -> int:
    """Write the per-(site, round) IPv6 transition-kind table."""
    return _write_csv(
        path,
        ("site_id", "round", "transition"),
        _rows(db, "transitions", "site_id", "round", "transition"),
    )


def export_database(
    db: ColumnarDatabase, directory: pathlib.Path
) -> dict[str, int]:
    """Export one vantage point's database; returns per-table row counts.

    ``faults.csv`` and ``transitions.csv`` (and their manifest entries)
    appear only when such rows were observed, so legacy export trees
    keep their historical layout and bytes.
    """
    directory.mkdir(parents=True, exist_ok=True)
    counts = {
        "downloads": export_downloads_csv(db, directory / "downloads.csv"),
        "paths": export_paths_csv(db, directory / "paths.csv"),
        "dns": export_dns_csv(db, directory / "dns.csv"),
        "page_checks": export_page_checks_csv(db, directory / "page_checks.csv"),
    }
    if db.table("faults").n_rows:
        counts["faults"] = export_faults_csv(db, directory / "faults.csv")
    if db.table("transitions").n_rows:
        counts["transitions"] = export_transitions_csv(
            db, directory / "transitions.csv"
        )
    return counts


def export_repository(
    repository: CentralRepository, directory: pathlib.Path
) -> pathlib.Path:
    """Export every vantage point plus a JSON manifest.

    Returns the manifest path.  Layout::

        <directory>/manifest.json
        <directory>/<vantage>/downloads.csv  paths.csv  dns.csv  page_checks.csv
        <directory>/<vantage>/faults.csv          (faulty campaigns only)
    """
    if not repository.vantage_names:
        raise MonitorError("repository holds no vantage points to export")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "format_version": EXPORT_FORMAT_VERSION,
        "vantage_points": {},
    }
    for name in repository.vantage_names:
        vantage = repository.vantage(name)
        counts = export_database(repository.database(name), directory / name)
        manifest["vantage_points"][name] = {
            "asn": vantage.asn,
            "location": vantage.location,
            "start_round": vantage.start_round,
            "as_path_available": vantage.as_path_available,
            "white_listed": vantage.white_listed,
            "kind": str(vantage.kind),
            "tables": counts,
        }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest_path
