"""Tests for the ASCII chart renderers."""

import pytest

from repro.eval.plotting import (
    crossover_points,
    grouped_bar_chart,
    line_chart,
    sparkline,
)


class TestGroupedBarChart:
    def test_structure(self):
        out = grouped_bar_chart(
            "fig", ["16", "32"], {"CM-PuM": [1, 2], "CM-IFP": [3, 4]}
        )
        lines = out.splitlines()
        assert lines[0] == "== fig =="
        assert lines[1].strip() == "16:"
        assert "CM-PuM" in lines[2]
        assert "CM-IFP" in lines[3]

    def test_series_length_checked(self):
        with pytest.raises(ValueError):
            grouped_bar_chart("f", ["a"], {"s": [1, 2]})

    def test_no_series_raises(self):
        with pytest.raises(ValueError):
            grouped_bar_chart("f", ["a"], {})

    def test_log_scale_marker(self):
        out = grouped_bar_chart("f", ["a"], {"s": [10.0]}, log_scale=True)
        assert "(log scale)" in out


class TestLineChart:
    def test_contains_all_markers(self):
        out = line_chart(
            "lines", [1, 2, 3], {"up": [1, 2, 3], "down": [3, 2, 1]}
        )
        assert "*" in out and "o" in out
        assert "* up" in out and "o down" in out

    def test_log_y(self):
        out = line_chart("l", [1, 2], {"s": [1.0, 1000.0]}, log_y=True)
        assert "(log)" in out or "1e+03" in out or "1000" in out

    def test_log_y_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_chart("l", [1, 2], {"s": [0.0, 1.0]}, log_y=True)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            line_chart("l", [1], {"s": [1.0]})

    def test_axis_labels(self):
        out = line_chart(
            "l", [1, 2], {"s": [1, 2]}, x_label="DB size", y_label="speedup"
        )
        assert "x: DB size" in out
        assert "y: speedup" in out

    def test_extremes_on_grid_edges(self):
        out = line_chart("l", [0, 10], {"s": [0.0, 5.0]}, height=5, width=20)
        rows = [line for line in out.splitlines() if "|" in line]
        assert "*" in rows[0]  # max value on top row
        assert "*" in rows[-1]  # min value on bottom row


class TestCrossover:
    def test_simple_crossing(self):
        xs = [0.0, 1.0, 2.0]
        a = [0.0, 1.0, 2.0]
        b = [2.0, 1.0, 0.0]
        points = crossover_points(xs, a, b)
        assert points == [1.0]

    def test_interpolated_crossing(self):
        xs = [0.0, 1.0]
        a = [0.0, 3.0]
        b = [1.0, 0.0]
        points = crossover_points(xs, a, b)
        assert points[0] == pytest.approx(0.25)

    def test_no_crossing(self):
        assert crossover_points([0, 1], [1, 2], [3, 4]) == []

    def test_touching_counts_once(self):
        xs = [0.0, 1.0, 2.0]
        a = [0.0, 1.0, 2.0]
        b = [1.0, 1.0, 1.0]
        points = crossover_points(xs, a, b)
        assert len(points) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crossover_points([0, 1], [1], [2, 3])

    def test_figure12_style_crossover(self):
        """CM-PuM wins small DBs, CM-IFP wins big ones: one crossover."""
        db = [8, 16, 32, 64, 128]
        pum = [300.0, 300.0, 300.0, 40.0, 35.0]
        ifp = [250.0, 250.0, 250.0, 290.0, 295.0]
        points = crossover_points(db, pum, ifp)
        assert len(points) == 1
        assert 32 < points[0] < 64


class TestSparkline:
    def test_monotone(self):
        line = sparkline([1, 2, 3, 4])
        assert line[0] == "▁" and line[-1] == "█"

    def test_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            sparkline([])
