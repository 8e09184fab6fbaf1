"""Golden-fixture test for the faults-on export format.

The exported CSV tree (including ``faults.csv`` and the manifest) is the
public face of a campaign; downstream users parse it without this
package.  This test pins the exporter's byte-level output for a small
hand-built faults-on repository against files checked in under
``tests/fixtures/golden_faults_export/`` — any format drift shows up as
a fixture diff in review, not as a silent change.

To regenerate after an *intentional* format change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_export_golden.py
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.monitor.aggregate import CentralRepository
from repro.monitor.database import (
    DnsObservation,
    DownloadObservation,
    FaultObservation,
    MeasurementDatabase,
    PageCheck,
    PathObservation,
)
from repro.monitor.export import export_repository
from repro.monitor.vantage import VantageKind, VantagePoint
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures" / "golden_faults_export"


def _golden_repository() -> CentralRepository:
    """A small, fully deterministic faults-on repository.

    Hand-built rather than campaign-derived so the fixture only changes
    when the *export format* changes, never when simulation behaviour
    does.  Every table is populated and every fault kind appears.
    """
    db = MeasurementDatabase(vantage_name="G1")
    db.add_dns_round(0, (2, 2, 1), [DnsObservation(1, "site-1", 0, True, True)])
    db.add_dns_round(1, (1, 1, 1), [DnsObservation(1, "site-1", 1, True, True)])
    db.add_page_checks([
        PageCheck(1, 0, 2048, 2048, True),
        PageCheck(1, 1, 2048, 1024, False),
    ])
    for round_idx in (0, 1):
        db.add_downloads([
            DownloadObservation(
                site_id=1,
                round_idx=round_idx,
                family=family,
                n_samples=10 + round_idx,
                mean_speed=speed + round_idx,
                ci_half_width=4.125,
                converged=True,
                page_bytes=2048,
                timestamp=3600.0 * round_idx,
            )
            for family, speed in ((V4, 220.5), (V6, 180.25))
        ])
        db.add_paths([
            PathObservation(1, round_idx, V4, dest_asn=30, as_path=(10, 20, 30)),
            PathObservation(1, round_idx, V6, dest_asn=30, as_path=(10, 40, 30)),
        ])
    db.add_fault(FaultObservation(1, 0, V6, "timeout"))
    db.add_fault(FaultObservation(1, 0, V6, "timeout"))
    db.add_fault(FaultObservation(2, 0, V4, "reset"))
    db.add_fault(FaultObservation(1, 1, V6, "dns_timeout"))
    db.add_fault(FaultObservation(2, 1, V4, "dns_exhausted"))
    db.add_fault(FaultObservation(2, 1, V6, "exhausted"))

    vantage = VantagePoint(
        name="G1",
        location="Testland",
        asn=10,
        start_round=0,
        as_path_available=True,
        white_listed=False,
        kind=VantageKind.ACADEMIC,
    )
    repository = CentralRepository()
    repository.add(vantage, db.freeze())
    return repository


def _tree_files(root: pathlib.Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_faults_on_export_matches_golden_fixture(tmp_path):
    export_repository(_golden_repository(), tmp_path)
    exported = _tree_files(tmp_path)

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        for rel, payload in exported.items():
            target = FIXTURE_DIR / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(payload)
        pytest.skip("golden fixture regenerated")

    assert FIXTURE_DIR.is_dir(), (
        "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = _tree_files(FIXTURE_DIR)
    assert sorted(exported) == sorted(golden)
    for rel in sorted(golden):
        assert exported[rel] == golden[rel], f"export drift in {rel}"


def test_golden_fixture_includes_fault_table():
    # Guards against the fixture being regenerated from a faults-off
    # repository by mistake.
    faults_csv = FIXTURE_DIR / "G1" / "faults.csv"
    if not faults_csv.exists():
        pytest.skip("fixture not generated yet")
    lines = faults_csv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "round,family,kind,count"
    assert len(lines) > 1
