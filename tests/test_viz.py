"""Tests for the terminal visualization helpers."""

import numpy as np
import pytest

from repro.viz import bar_chart, histogram_bars


class TestBarChart:
    def test_labels_and_lengths(self):
        text = bar_chart({"af": 0.5, "bf": 1.0})
        lines = text.splitlines()
        assert lines[0].startswith("af") and lines[1].startswith("bf")
        assert lines[1].count("█") == 2 * lines[0].count("█")

    def test_empty(self):
        assert bar_chart({}) == ""


class TestHistogramBars:
    def test_with_edges(self):
        text = histogram_bars([0.5, 0.5], edges=[0, 3, np.inf])
        assert "[0, 3)" in text and "inf" in text

    def test_edge_count_validated(self):
        with pytest.raises(ValueError):
            histogram_bars([0.5, 0.5], edges=[0, 3])

    def test_peak_has_longest_bar(self):
        text = histogram_bars([0.1, 0.9, 0.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("█") > lines[0].count("█")
        assert lines[2].count("█") == 0

