"""Table rendering."""

from __future__ import annotations

import pytest

from repro.experiments.report import Table, fmt, pct


class TestFormatting:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(1.25) == "1.2"
        assert fmt(7) == "7"
        assert fmt("x") == "x"

    def test_pct(self):
        assert pct(0.1234) == "12.3%"
        assert pct(0.5, 0) == "50%"
        assert pct(None) == "-"


class TestTable:
    def test_add_row_checks_arity(self):
        table = Table(title="T", columns=("a", "b"))
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_cell_and_column_access(self):
        table = Table(title="T", columns=("a", "b"))
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.cell(0, "b") == 2
        assert [row[0] for row in table.rows] == [1, 3]

    def test_render_contains_everything(self):
        table = Table(
            title="T",
            columns=("name", "value"),
            paper_reference=["paper says 42"],
        )
        table.add_row("x", 41.0)
        table.notes.append("close enough")
        text = table.render()
        assert "== T ==" in text
        assert "41.0" in text
        assert "paper says 42" in text
        assert "note: close enough" in text

    def test_render_empty_table(self):
        table = Table(title="T", columns=("a",))
        assert "== T ==" in table.render()
