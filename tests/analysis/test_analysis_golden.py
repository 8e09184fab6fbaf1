"""Golden outputs of the per-vantage analysis.

``build_contexts`` screens every dual-stack site (Table 3), classifies
the kept ones (SP / DP / DL) and evaluates each SP and DP destination AS
(Tables 8 and 11).  This module pins, per vantage, every site's
screening (kept, reason, family, step round, path-change flag), the kept
ids, the classification categories and the SP and DP verdicts, for two
seeded campaigns: the faults-off small config at scale 0.3 and the
heavy-fault + DNS64 config at scale 0.06.  A change to how a series is
screened or a site is classified must keep these outputs.

To regenerate after an *intentional* change to the analysis::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_analysis_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

import pytest

from repro.config import small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.experiments.scenario import build_contexts
from repro.faults import fault_preset

FIXTURE = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "golden_analysis.json"
)


def _clean_config():
    return small_config(seed=11, scale=0.3)


def _heavy_dns64_config():
    cfg = small_config(seed=11, scale=0.06)
    return dataclasses.replace(
        cfg,
        faults=fault_preset("heavy"),
        dns64=dataclasses.replace(cfg.dns64, enabled=True),
    )


CAMPAIGNS = {
    "clean": _clean_config,
    "heavy_dns64": _heavy_dns64_config,
}


def _screening(screening) -> str:
    """``"<reason|kept> <family|-> <step round|-> <path change 0|1>"``."""
    fields = (
        screening.reason.value if screening.reason else "kept",
        screening.reason_family.value if screening.reason_family else "-",
        "-" if screening.step_round is None else str(screening.step_round),
        str(int(screening.step_from_path_change)),
    )
    assert screening.kept == (screening.reason is None)
    return " ".join(fields)


def _verdicts(evaluations) -> dict:
    return {
        str(asn): {"verdict": evaluation.verdict.value, "n_sites": evaluation.n_sites}
        for asn, evaluation in sorted(evaluations.items())
    }


def _analysis_summary(config) -> dict:
    contexts = build_contexts(config, run_campaign(build_world(config)))
    return {
        name: {
            "screenings": {
                str(sid): _screening(screening)
                for sid, screening in sorted(context.screenings.items())
            },
            "kept": list(context.kept),
            "categories": {
                str(sid): classification.category.value
                for sid, classification in sorted(context.classifications.items())
            },
            "sp": _verdicts(context.sp_evaluations),
            "dp": _verdicts(context.dp_evaluations),
        }
        for name, context in sorted(contexts.items())
    }


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_analysis_matches_golden_fixture(name):
    summary = _analysis_summary(CAMPAIGNS[name]())

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden = (
            json.loads(FIXTURE.read_text(encoding="utf-8"))
            if FIXTURE.exists()
            else {}
        )
        golden[name] = summary
        FIXTURE.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip("golden fixture regenerated")

    assert FIXTURE.exists(), (
        "missing golden fixture; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert sorted(summary) == sorted(golden)
    for vantage, expected in golden.items():
        assert summary[vantage] == expected, f"analysis drift at {vantage}"


def test_fixture_exercises_every_screening_outcome():
    # Guards against regenerating from campaigns that lost the cases the
    # fixture exists to pin: removals by trend and by step, and kept
    # sites that reach SP/DP evaluation.
    if not FIXTURE.exists():
        pytest.skip("fixture not generated yet")
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    reasons = {
        screening.split()[0]
        for campaign in golden.values()
        for vantage in campaign.values()
        for screening in vantage["screenings"].values()
    }
    assert {"trend_up", "trend_down"} & reasons
    assert {"step_up", "step_down"} & reasons
    assert any(
        vantage["sp"] or vantage["dp"]
        for campaign in golden.values()
        for vantage in campaign.values()
    )
