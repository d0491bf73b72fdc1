"""Tests for the DoS metrics and report formatting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import metrics, reports


class TestDosCriteria:
    def test_threshold(self):
        assert metrics.is_denial_of_service(0.5)
        assert not metrics.is_denial_of_service(5.0)

    def test_loss_fraction(self):
        assert metrics.loss_fraction(100, 50) == pytest.approx(0.5)
        assert metrics.loss_fraction(100, 120) == 0.0  # clamped

    def test_loss_fraction_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            metrics.loss_fraction(0, 10)

    def test_significant_loss(self):
        assert metrics.is_significant_loss(94, 50)
        assert not metrics.is_significant_loss(94, 90)


class TestStatistics:
    def test_mean(self):
        assert metrics.mean([1, 2, 3]) == 2
        assert math.isnan(metrics.mean([]))

    def test_mean_sums_left_to_right_on_every_python(self):
        # 1e16 + 1.0 rounds back to 1e16, so an ordered sum reads 0.0;
        # a compensated sum (``sum()`` from CPython 3.12) would keep the
        # 1.0 and move every pinned digest built on a mean.
        assert metrics.mean([1e16, 1.0, -1e16]) == 0.0
        assert metrics.sum_in_order([1e16, 1.0, -1e16]) == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_mean_within_bounds_property(self, values):
        centre = metrics.mean(values)
        assert min(values) - 1e-6 <= centre <= max(values) + 1e-6


class TestReports:
    def test_format_table_aligns_columns(self):
        text = reports.format_table(
            ["name", "value"], [["a", 1], ["long-name", 22.5]], title="demo"
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5  # title, header, rule, 2 rows

    def test_format_table_renders_floats_and_nan(self):
        text = reports.format_table(["x"], [[float("nan")], [12345.6]])
        assert "n/a" in text
        assert "12,346" in text

    def test_ascii_plot_renders_marks(self):
        plot = reports.ascii_plot(
            [("efw", [(0, 0), (10, 10)]), ("adf", [(5, 5)])],
            width=20,
            height=5,
            x_label="x",
            y_label="y",
        )
        assert "e" in plot and "a" in plot
        assert "legend" in plot

    def test_ascii_plot_empty(self):
        assert reports.ascii_plot([]) == "(no data)"

