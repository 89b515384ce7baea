"""Tests for the text rendering helpers."""

from repro.eval.report import format_percent, format_ratio, format_table


class TestFormatTable:
    def test_headers_and_rows_aligned(self):
        table = format_table(["name", "value"], [("a", 1), ("long-name", 22)])
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert len(set(len(line) for line in lines[:2])) <= 2

    def test_title_rendering(self):
        table = format_table(["x"], [(1,)], title="My Table")
        assert table.splitlines()[0] == "My Table"
        assert set(table.splitlines()[1]) == {"="}

    def test_float_formatting(self):
        table = format_table(["x"], [(3.14159,)])
        assert "3.142" in table

    def test_bool_formatting(self):
        table = format_table(["ok"], [(True,), (False,)])
        assert "yes" in table and "no" in table

    def test_numeric_right_alignment(self):
        table = format_table(["v"], [(1,), (1000,)])
        rows = table.splitlines()[2:]
        assert rows[0].endswith("1")
        assert rows[1].endswith("1000")


class TestScalarFormatters:
    def test_percent(self):
        assert format_percent(0.113) == "11.3%"
        assert format_percent(0.113, digits=0) == "11%"

    def test_ratio(self):
        assert format_ratio(1.478) == "1.48x"

