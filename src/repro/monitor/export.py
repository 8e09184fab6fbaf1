"""Measurement data export.

The paper's Section 5.5 laments that "the currently limited public access
to its data ... would obviously be required to allow independent
validation of the findings" and promises a public repository.  This
module delivers that for the reproduction: every table of a
:class:`~repro.monitor.database.MeasurementDatabase` exports to CSV, and
a whole repository exports to a directory tree (one folder per vantage
point) plus a JSON manifest.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Iterable

from ..errors import MonitorError
from .aggregate import CentralRepository
from .database import MeasurementDatabase

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


def export_downloads_csv(db: MeasurementDatabase, path: pathlib.Path) -> int:
    """Write the download-statistics table; returns the row count."""
    def rows():
        for (site_id, family), observations in sorted(
            db.downloads.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            for obs in observations:
                yield (
                    site_id,
                    family.value,
                    obs.round_idx,
                    obs.n_samples,
                    f"{obs.mean_speed:.4f}",
                    f"{obs.ci_half_width:.4f}",
                    int(obs.converged),
                    obs.page_bytes,
                    f"{obs.timestamp:.1f}",
                )

    return _write_csv(
        path,
        (
            "site_id", "family", "round", "n_samples", "mean_speed_kbps",
            "ci_half_width", "converged", "page_bytes", "timestamp",
        ),
        rows(),
    )


def export_paths_csv(db: MeasurementDatabase, path: pathlib.Path) -> int:
    """Write the AS-path table; paths are space-separated ASNs."""
    def rows():
        for (site_id, family), observations in sorted(
            db.paths.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            for obs in observations:
                yield (
                    site_id,
                    family.value,
                    obs.round_idx,
                    obs.dest_asn,
                    " ".join(str(asn) for asn in obs.as_path),
                )

    return _write_csv(
        path, ("site_id", "family", "round", "dest_asn", "as_path"), rows()
    )


def export_dns_csv(db: MeasurementDatabase, path: pathlib.Path) -> int:
    """Write per-round DNS counters (the Fig 1 series source)."""
    def rows():
        for round_idx in sorted(db.dns_counts):
            queried, v4, v6 = db.dns_counts[round_idx]
            yield (round_idx, queried, v4, v6)

    return _write_csv(path, ("round", "queried", "with_a", "with_aaaa"), rows())


def export_page_checks_csv(db: MeasurementDatabase, path: pathlib.Path) -> int:
    """Write the page-identity check table."""
    def rows():
        for site_id in sorted(db.page_checks):
            for check in db.page_checks[site_id]:
                yield (
                    site_id,
                    check.round_idx,
                    check.v4_bytes,
                    check.v6_bytes,
                    int(check.identical),
                )

    return _write_csv(
        path, ("site_id", "round", "v4_bytes", "v6_bytes", "identical"), rows()
    )


def export_faults_csv(db: MeasurementDatabase, path: pathlib.Path) -> int:
    """Write per-round failure counters, one row per (round, family, kind)."""
    counts: dict[tuple[int, str, str], int] = {}
    for obs in db.faults:
        key = (obs.round_idx, obs.family.value, obs.kind)
        counts[key] = counts.get(key, 0) + 1

    def rows():
        for (round_idx, family, kind) in sorted(counts):
            yield (round_idx, family, kind, counts[(round_idx, family, kind)])

    return _write_csv(path, ("round", "family", "kind", "count"), rows())


def export_transitions_csv(db: MeasurementDatabase, path: pathlib.Path) -> int:
    """Write the per-(site, round) IPv6 transition-kind table."""
    def rows():
        for obs in db.transitions:
            yield (obs.site_id, obs.round_idx, obs.kind)

    return _write_csv(path, ("site_id", "round", "transition"), rows())


def export_database(
    db: MeasurementDatabase, directory: pathlib.Path
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
    if db.faults:
        counts["faults"] = export_faults_csv(db, directory / "faults.csv")
    if db.transitions:
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
