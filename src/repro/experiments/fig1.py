"""Figure 1 — IPv6 reachability of the top list over time.

The paper plots the fraction of Alexa's top-1M that is IPv6 accessible,
rising from ~0.2% to just above 1%, with two jumps: the IANA free-pool
depletion announcement and World IPv6 Day.  We reproduce the series from
the monitor's per-round DNS counters (measured view) alongside the
catalog's ground truth.
"""

from __future__ import annotations

from ..data.series import v6_reachability
from .report import Table, pct
from .scenario import ExperimentData, get_experiment_data

PAPER_REFERENCE = [
    "series rises from ~0.2% (Dec 2010) to ~1.1% (Aug 2011)",
    "jump 1 at IANA depletion (Feb 3, 2011), jump 2 at World IPv6 Day (Jun 8, 2011)",
]


def reachability_series(data: ExperimentData) -> list[tuple[int, float, float]]:
    """(round, measured fraction, ground-truth fraction) per round.

    Measured = AAAA share among DNS queries issued by the earliest-start
    vantage (Penn monitors from round 0); ground truth = catalog adoption
    over the round's ranked list.
    """
    world = data.world
    db = data.repository.database("Penn")
    out: list[tuple[int, float, float]] = []
    for round_idx in range(data.config.campaign.n_rounds):
        measured = v6_reachability(db, round_idx)
        truth = world.catalog.accessible_fraction(round_idx)
        out.append((round_idx, measured, truth))
    return out


def run(data: ExperimentData | None = None) -> Table:
    """Build the Figure 1 series table."""
    if data is None:
        data = get_experiment_data()
    series = reachability_series(data)
    adoption = data.config.adoption
    table = Table(
        title="Fig 1 - IPv6 reachability of the top list over time",
        columns=("round", "measured", "ground truth", "event"),
        paper_reference=PAPER_REFERENCE,
    )
    for round_idx, measured, truth in series:
        event = ""
        if round_idx == adoption.iana_depletion_round:
            event = "IANA depletion"
        elif round_idx == adoption.world_ipv6_day_round:
            event = "World IPv6 Day"
        table.add_row(round_idx, pct(measured, 2), pct(truth, 2), event)
    table.notes.append(
        "measured = AAAA fraction among Penn's DNS queries (includes its "
        "external site feed); ground truth = catalog adoption over the "
        "ranked list"
    )
    return table
