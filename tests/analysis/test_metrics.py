"""Tests for metric helpers (repro.analysis.metrics)."""

import pytest

from repro.analysis.metrics import arithmetic_mean, format_table, percent_reduction


class TestPercentages:
    def test_percent_reduction(self):
        assert percent_reduction(100, 12) == pytest.approx(88.0)

    def test_percent_reduction_zero_reference(self):
        assert percent_reduction(0, 5) == 0.0

    def test_full_reduction(self):
        assert percent_reduction(40, 0) == pytest.approx(100.0)


class TestMeans:
    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0


class TestFormatTable:
    def test_headers_and_rows_rendered(self):
        text = format_table(["name", "value"], [["x", 1.234], ["long_name", 22]])
        lines = text.splitlines()
        assert "name" in lines[0]
        assert "1.23" in text
        assert "long_name" in text

    def test_column_alignment(self):
        text = format_table(["a", "b"], [["xx", 1]])
        header, separator, row = text.splitlines()
        assert len(header) == len(separator)
