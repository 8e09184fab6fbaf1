"""Cross-vantage validation (Table 8's last two rows).

An SP destination AS observed from several vantage points should land in
the same verdict category everywhere — if the data plane of the AS (and
its servers) really explain its behaviour, the vantage point should not
matter.  A *positive* cross-check is an AS with one consistent category
across all its vantage points; a *negative* one is an AS whose category
differs.  The paper found only positives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AnalysisConfig
from ..data.columnar import ColumnarDatabase
from .classify import ASGroup
from .hypotheses import ASEvaluation, ASVerdict, evaluate_as
from .zeromode import relative_differences


@dataclass(frozen=True)
class CrossCheckResult:
    """Outcome of the cross-vantage comparison."""

    checkable_ases: int
    positive: int
    negative: int
    #: ASes with conflicting verdicts, for inspection.
    conflicts: tuple[int, ...]


def cross_check(
    per_vantage: dict[str, dict[int, ASEvaluation]],
) -> CrossCheckResult:
    """Compare AS verdicts across vantage points.

    ``per_vantage`` maps vantage name to its ``{asn: evaluation}`` (for
    the same AS population, typically SP ASes).  Only ASes present from
    at least two vantage points are checkable.
    """
    verdicts_by_as: dict[int, set[ASVerdict]] = {}
    for evaluations in per_vantage.values():
        for asn, evaluation in evaluations.items():
            verdicts_by_as.setdefault(asn, set()).add(evaluation.verdict)
    seen_counts: dict[int, int] = {}
    for evaluations in per_vantage.values():
        for asn in evaluations:
            seen_counts[asn] = seen_counts.get(asn, 0) + 1

    checkable = [asn for asn, count in seen_counts.items() if count >= 2]
    positive = [asn for asn in checkable if len(verdicts_by_as[asn]) == 1]
    negative = [asn for asn in checkable if len(verdicts_by_as[asn]) > 1]
    return CrossCheckResult(
        checkable_ases=len(checkable),
        positive=len(positive),
        negative=len(negative),
        conflicts=tuple(sorted(negative)),
    )


def cross_check_common_sites(
    per_vantage: dict[str, tuple[ColumnarDatabase, dict[int, ASGroup]]],
    analysis_cfg: AnalysisConfig,
) -> CrossCheckResult:
    """Cross-check AS verdicts over the vantage points' *common* sites.

    Vantage points monitor overlapping-but-different site sets (start
    dates, churn sampling, external feeds), so naive verdict comparison
    can flip on an impaired-server site that only one vantage measured —
    a site effect, not an AS effect.  Re-evaluating every shared AS on
    the intersection of its measured sites removes that artifact; what
    remains compares like with like, which is the paper's intent.
    """
    # Which vantages saw which AS, and with which measured sites.
    sightings: dict[int, list[str]] = {}
    for name, (db, groups) in per_vantage.items():
        for asn in groups:
            sightings.setdefault(asn, []).append(name)

    verdicts_by_as: dict[int, set[ASVerdict]] = {}
    checkable: list[int] = []
    for asn, names in sightings.items():
        if len(names) < 2:
            continue
        common: set[int] | None = None
        for name in names:
            db, groups = per_vantage[name]
            measured = set(relative_differences(db, groups[asn].site_ids))
            common = measured if common is None else (common & measured)
        if not common:
            continue
        verdicts: set[ASVerdict] = set()
        for name in names:
            db, groups = per_vantage[name]
            evaluation = evaluate_as(
                db, groups[asn], analysis_cfg, site_filter=common
            )
            if evaluation is not None:
                verdicts.add(evaluation.verdict)
        if not verdicts:
            continue
        checkable.append(asn)
        verdicts_by_as[asn] = verdicts

    positive = [asn for asn in checkable if len(verdicts_by_as[asn]) == 1]
    negative = [asn for asn in checkable if len(verdicts_by_as[asn]) > 1]
    return CrossCheckResult(
        checkable_ases=len(checkable),
        positive=len(positive),
        negative=len(negative),
        conflicts=tuple(sorted(negative)),
    )


def known_good_sites(
    per_vantage: dict[str, dict[int, ASEvaluation]],
) -> dict[int, set[int]]:
    """Per AS, sites whose servers are known to perform well in IPv6.

    From any vantage where an AS is SP, its COMPARABLE sites and its
    zero-mode members have demonstrably healthy IPv6 servers.  The paper
    reuses these at vantage points where the same AS is DP, to rule out
    server effects there.
    """
    good: dict[int, set[int]] = {}
    for evaluations in per_vantage.values():
        for asn, evaluation in evaluations.items():
            bucket = good.setdefault(asn, set())
            if evaluation.verdict is ASVerdict.COMPARABLE:
                bucket.update(evaluation.zero_mode_site_ids)
            elif evaluation.verdict is ASVerdict.ZERO_MODE:
                bucket.update(evaluation.zero_mode_site_ids)
    return good
