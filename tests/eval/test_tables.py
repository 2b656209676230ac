"""Unit tests for plain-text table formatting."""

from repro.eval.tables import format_table


def test_format_table_aligns_columns():
    text = format_table(["name", "value"], [["a", 1.0], ["longer", 2.5]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "2.50" in lines[3]


def test_format_table_handles_none_and_ints():
    text = format_table(["a", "b"], [[None, 3]])
    assert "-" in text and "3" in text
