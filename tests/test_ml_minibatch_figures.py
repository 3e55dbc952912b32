"""ASCII-figure rendering tests."""

import pytest

from repro.analysis.figures import bar_chart, line_chart, render_figures


class TestFigures:
    def test_bar_chart_scales_to_peak(self):
        chart = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart([])

    def test_line_chart_contains_points(self):
        chart = line_chart([1, 2, 3], [1.0, 4.0, 9.0], title="T")
        assert chart.startswith("T")
        assert chart.count("*") == 3

    def test_line_chart_flat_series(self):
        chart = line_chart([1, 2], [5.0, 5.0])
        assert "*" in chart

    def test_line_chart_mismatched_rejected(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], [1.0])

    def test_render_figures_combines_all(self):
        text = render_figures(
            pca_cumulative=[0.6, 0.9, 0.97, 0.99],
            elbow_rows=[(2, 100.0, 0.0), (3, 40.0, 0.6), (4, 35.0, 0.12)],
            anonymity={"1": 0.3, "2-10": 1.0, "501-+": 95.0},
        )
        for needle in ("Figure 2", "Figure 3", "Figure 4", "Figure 5"):
            assert needle in text
