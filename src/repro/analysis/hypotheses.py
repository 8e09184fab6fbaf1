"""Per-AS performance verdicts — the machinery behind Tables 8 and 11.

For every destination AS (grouped SP or DP), compare the average IPv6 and
IPv4 download speeds across its sites:

* **COMPARABLE** — IPv6 within the 10% band of IPv4, or better;
* **ZERO_MODE** — worse overall, but the per-site difference distribution
  has a mode at zero (healthy servers exist ⇒ blame servers, not paths);
* **SMALL_N** — worse, no zero mode, and too few sites (< 4) to expect
  one;
* **WORSE** — worse, no zero mode, despite enough sites.

Under H1, SP ASes should be overwhelmingly COMPARABLE (plus explainable
residue).  Under H2, DP ASes should be mostly WORSE — routing, the one
factor distinguishing DP from SP, is the culprit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from ..config import AnalysisConfig
from ..data.columnar import ColumnarDatabase
from ..net.addresses import AddressFamily
from ..obs import metrics, span
from .classify import ASGroup
from .metrics import site_mean_speed
from .zeromode import has_zero_mode, relative_differences, zero_mode_sites


class ASVerdict(Enum):
    """Verdict for one destination AS."""

    COMPARABLE = "comparable"
    ZERO_MODE = "zero_mode"
    SMALL_N = "small_n"
    WORSE = "worse"


@dataclass(frozen=True)
class ASEvaluation:
    """One AS's verdict plus the numbers behind it."""

    asn: int
    verdict: ASVerdict
    n_sites: int
    v4_speed: float
    v6_speed: float
    zero_mode_site_ids: tuple[int, ...]


def evaluate_as(
    db: ColumnarDatabase,
    group: ASGroup,
    analysis_cfg: AnalysisConfig,
    site_filter: Iterable[int] | None = None,
) -> ASEvaluation | None:
    """Evaluate one destination AS; None when no site has usable data.

    ``site_filter`` restricts the evaluation to a subset of the group's
    sites — used for the cross-vantage server-exoneration step, where a
    DP AS is re-evaluated using only sites whose servers are known-good
    from an SP vantage point.
    """
    site_ids = list(group.site_ids)
    if site_filter is not None:
        allowed = set(site_filter)
        site_ids = [sid for sid in site_ids if sid in allowed]
    v4_means = []
    v6_means = []
    usable: list[int] = []
    for sid in site_ids:
        v4 = site_mean_speed(db, sid, AddressFamily.IPV4)
        v6 = site_mean_speed(db, sid, AddressFamily.IPV6)
        if v4 is None or v6 is None:
            continue
        usable.append(sid)
        v4_means.append(v4)
        v6_means.append(v6)
    if not usable:
        return None
    v4_speed = sum(v4_means) / len(v4_means)
    v6_speed = sum(v6_means) / len(v6_means)

    threshold = analysis_cfg.comparable_threshold
    diffs = relative_differences(db, usable)
    zm_sites = tuple(zero_mode_sites(diffs, threshold))

    comparable = v6_speed >= v4_speed or (v4_speed - v6_speed) / v4_speed <= threshold
    if comparable:
        verdict = ASVerdict.COMPARABLE
    elif has_zero_mode(list(diffs.values()), threshold):
        verdict = ASVerdict.ZERO_MODE
    elif len(usable) < analysis_cfg.small_as_site_count:
        verdict = ASVerdict.SMALL_N
    else:
        verdict = ASVerdict.WORSE
    return ASEvaluation(
        asn=group.asn,
        verdict=verdict,
        n_sites=len(usable),
        v4_speed=v4_speed,
        v6_speed=v6_speed,
        zero_mode_site_ids=zm_sites,
    )


def evaluate_groups(
    db: ColumnarDatabase,
    groups: Iterable[ASGroup],
    analysis_cfg: AnalysisConfig,
) -> dict[int, ASEvaluation]:
    """Evaluate every AS group with data; returns ``{asn: evaluation}``."""
    with span("analysis.evaluate", vantage=db.vantage_name):
        out: dict[int, ASEvaluation] = {}
        for group in groups:
            evaluation = evaluate_as(db, group, analysis_cfg)
            if evaluation is not None:
                out[group.asn] = evaluation
        metrics.counter("analysis.groups_evaluated").inc(len(out))
        return out


def verdict_fractions(
    evaluations: Iterable[ASEvaluation],
) -> dict[ASVerdict, float]:
    """Share of ASes per verdict (the percentage rows of Tables 8/11)."""
    evaluations = list(evaluations)
    if not evaluations:
        return {verdict: 0.0 for verdict in ASVerdict}
    counts = {verdict: 0 for verdict in ASVerdict}
    for evaluation in evaluations:
        counts[evaluation.verdict] += 1
    return {v: counts[v] / len(evaluations) for v in ASVerdict}
