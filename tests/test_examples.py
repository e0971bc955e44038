"""Smoke tests for the example scripts.

Each example must parse, import cleanly, expose ``main``, and have a
docstring explaining what it shows.  (Full runs are exercised manually /
in benchmarks — they train models and are too slow for unit tests, but
the pure helper functions are tested here.)
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.histograms import HistogramSpec

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


class TestExampleHygiene:
    def test_at_least_three_examples(self):
        assert len(EXAMPLES) >= 3

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_parses_with_docstring_and_main(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
        names = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        assert "main" in names, f"{path.name} lacks main()"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_imports_cleanly(self, path):
        module = _load(path)
        assert callable(module.main)


class TestReservationHelpers:
    """The library calls travel_time_reservation plans with."""

    @pytest.fixture(scope="class")
    def module(self):
        path = [p for p in EXAMPLES
                if p.stem == "travel_time_reservation"][0]
        return _load(path)

    def test_distribution_from_histogram(self, module):
        from repro.histograms import travel_time
        assert module.travel_time_distribution \
            is travel_time.travel_time_distribution
        spec = HistogramSpec(edges=(0.0, 5.0, 10.0, np.inf))
        dist = module.travel_time_distribution(
            np.array([0.5, 0.3, 0.2]), spec, trip_km=6.0)
        assert dist.probabilities.sum() == pytest.approx(1.0)
        assert (np.diff(dist.intervals_min[:, 0]) > 0).all()

    def test_confidence_monotone(self, module):
        spec = HistogramSpec(edges=(0.0, 5.0, 10.0, np.inf))
        dist = module.travel_time_distribution(
            np.array([0.2, 0.3, 0.5]), spec, trip_km=6.0)
        t50, t95 = dist.quantile(0.5), dist.quantile(0.95)
        assert t95 >= t50
        # The slowest piece: 6 km at the 0.5 m/s floor.
        assert t95 == pytest.approx(6000.0 / 0.5 / 60.0)
