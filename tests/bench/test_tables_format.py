"""Rendering edge-case tests for ExperimentResult tables."""

from repro.bench.tables import ExperimentResult
from repro.bench.tables import _format_cell


class TestCellFormatting:
    def test_zero(self):
        assert _format_cell(0.0) == "0"

    def test_small_floats_use_scientific(self):
        assert "e" in _format_cell(0.000123) or _format_cell(0.000123) == "0.000123"

    def test_large_floats_compact(self):
        assert _format_cell(123456.0) == "1.23e+05"

    def test_mid_floats_trimmed(self):
        assert _format_cell(1.500) == "1.5"
        assert _format_cell(2.0) == "2"

    def test_strings_passthrough(self):
        assert _format_cell("hello") == "hello"

    def test_ints_passthrough(self):
        assert _format_cell(42) == "42"


class TestRenderLayout:
    def test_columns_aligned(self):
        result = ExperimentResult("x", "t", columns=["long_column_name", "b"])
        result.add_row(long_column_name=1, b="yy")
        lines = result.render().splitlines()
        header, divider, row = lines[1], lines[2], lines[3]
        assert len(header) == len(divider) == len(row)

    def test_empty_table_renders(self):
        result = ExperimentResult("x", "t", columns=["a"])
        text = result.render()
        assert "x — t" in text
        assert "a" in text

    def test_missing_cell_blank(self):
        result = ExperimentResult("x", "t", columns=["a", "b"])
        result.add_row(a=1)
        assert "1" in result.render()
