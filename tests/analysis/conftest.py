"""Builders for synthetic measurement databases used by analysis tests.

Tests fill a write buffer with these helpers and hand the analysis its
frozen columns (``db.freeze()``), as a campaign's shards do."""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.config import AnalysisConfig, MonitorConfig
from repro.monitor.database import (
    DownloadObservation,
    MeasurementDatabase,
    PathObservation,
)
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def add_series(
    db: MeasurementDatabase,
    site_id: int,
    family: AddressFamily,
    speeds: Sequence[float],
    as_path: tuple[int, ...] = (1, 2, 3),
    path_switch: tuple[int, tuple[int, ...]] | None = None,
) -> None:
    """Insert a per-round speed series plus path observations.

    ``path_switch=(round, new_path)`` flips the recorded path from that
    round on (a path-change event).
    """
    for round_idx, speed in enumerate(speeds):
        db.add_downloads([
            DownloadObservation(
                site_id=site_id,
                round_idx=round_idx,
                family=family,
                n_samples=5,
                mean_speed=speed,
                ci_half_width=speed * 0.02,
                converged=True,
                page_bytes=1000,
                timestamp=0.0,
            )
        ])
        current = as_path
        if path_switch is not None and round_idx >= path_switch[0]:
            current = path_switch[1]
        db.add_paths([
            PathObservation(
                site_id=site_id,
                round_idx=round_idx,
                family=family,
                dest_asn=current[-1],
                as_path=current,
            )
        ])


def add_dual_series(
    db: MeasurementDatabase,
    site_id: int,
    v4_speeds: Sequence[float],
    v6_speeds: Sequence[float],
    v4_path: tuple[int, ...] = (1, 2, 3),
    v6_path: tuple[int, ...] | None = None,
    v6_path_switch: tuple[int, tuple[int, ...]] | None = None,
) -> None:
    add_series(db, site_id, V4, v4_speeds, v4_path)
    add_series(
        db,
        site_id,
        V6,
        v6_speeds,
        v6_path if v6_path is not None else v4_path,
        path_switch=v6_path_switch,
    )


@pytest.fixture()
def db() -> MeasurementDatabase:
    return MeasurementDatabase(vantage_name="T")


@pytest.fixture()
def monitor_cfg() -> MonitorConfig:
    return MonitorConfig(min_rounds=6)


@pytest.fixture()
def analysis_cfg() -> AnalysisConfig:
    return AnalysisConfig()
