"""Paper-style table rendering.

Every experiment returns a :class:`Table`; its ``render()`` output lines
up the measured values next to the paper's published values (when
provided) so a reader can eyeball the shape comparison the reproduction
targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def fmt(value) -> str:
    """Human formatting: floats get 1 decimal, fractions get a percent."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def pct(fraction: float | None, digits: int = 1) -> str:
    """Format a 0-1 fraction as a percentage string."""
    if fraction is None:
        return "-"
    return f"{100.0 * fraction:.{digits}f}%"


@dataclass
class Table:
    """A rendered experiment result."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: the corresponding numbers from the paper, as display-ready rows.
    paper_reference: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(cells)

    def cell(self, row_idx: int, column: str):
        """Fetch one cell by row index and column name."""
        return self.rows[row_idx][list(self.columns).index(column)]

    def render(self) -> str:
        """Fixed-width text rendering, paper reference appended."""
        header = [str(c) for c in self.columns]
        body = [[fmt(cell) for cell in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.paper_reference:
            lines.append("")
            lines.append("-- paper reference --")
            lines.extend(self.paper_reference)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
