"""Table 2 — monitoring profiles per vantage point.

Sites measured dual-stack, sites kept after confidence screening,
distinct destination ASes per family, and ASes crossed per family —
from each AS_PATH vantage point and across all of them.
"""

from __future__ import annotations

from ..data.series import ases_crossed, destination_ases
from ..net.addresses import AddressFamily
from .report import Table
from .scenario import ExperimentData, get_experiment_data

PAPER_REFERENCE = [
    "              Penn  Comcast  LU    UPCB  All",
    "Sites (total) 12385 4568     5069  7843  NA",
    "Sites kept    7994  3525     3906  4418  NA",
    "Dest AS v4    1047  724      801   766   1364",
    "Dest AS v6    727   592      642   609   1010",
    "Crossed v4    1332  922      1019  988   1785",
    "Crossed v6    849   742      764   746   1208",
]

#: column order follows the paper.
VANTAGE_ORDER = ("Penn", "Comcast", "LU", "UPCB")


def profile_rows(data: ExperimentData) -> dict[str, list[object]]:
    """The six data rows of Table 2, keyed by row label."""
    rows: dict[str, list[object]] = {
        "Sites (total)": [],
        "Sites kept": [],
        "Dest ASes (IPv4)": [],
        "Dest ASes (IPv6)": [],
        "ASes crossed (IPv4)": [],
        "ASes crossed (IPv6)": [],
    }
    union: dict[str, set[int]] = {
        "Dest ASes (IPv4)": set(),
        "Dest ASes (IPv6)": set(),
        "ASes crossed (IPv4)": set(),
        "ASes crossed (IPv6)": set(),
    }
    for name in VANTAGE_ORDER:
        context = data.context(name)
        db = context.db
        rows["Sites (total)"].append(len(context.dual_stack_sites))
        rows["Sites kept"].append(len(context.kept))
        for family, dest_label, crossed_label in (
            (AddressFamily.IPV4, "Dest ASes (IPv4)", "ASes crossed (IPv4)"),
            (AddressFamily.IPV6, "Dest ASes (IPv6)", "ASes crossed (IPv6)"),
        ):
            dest = destination_ases(db, family)
            crossed = ases_crossed(db, family)
            rows[dest_label].append(len(dest))
            rows[crossed_label].append(len(crossed))
            union[dest_label] |= dest
            union[crossed_label] |= crossed
    rows["Sites (total)"].append("NA")
    rows["Sites kept"].append("NA")
    for label, members in union.items():
        rows[label].append(len(members))
    return rows


def run(data: ExperimentData | None = None) -> Table:
    """Build the monitoring-profile table."""
    if data is None:
        data = get_experiment_data()
    table = Table(
        title="Table 2 - monitoring profiles per vantage point",
        columns=("numbers of", *VANTAGE_ORDER, "All"),
        paper_reference=PAPER_REFERENCE,
    )
    for label, cells in profile_rows(data).items():
        table.add_row(label, *cells)
    table.notes.append(
        "expected shape: Penn (earliest start + external feed) monitors "
        "the most sites; v6 dest/crossed AS counts sit below v4"
    )
    return table
