"""Focused tests for the experiment runner internals."""

import numpy as np
import pytest

from repro.experiments import make_nh, prepare, run_comparison
from repro.experiments.runner import ComparisonResult, MethodResult
from repro.metrics.evaluation import EvaluationResult


@pytest.fixture(scope="module")
def data(dataset):
    return prepare(dataset, s=3, h=2)


class TestRunComparison:
    def test_fit_seconds_recorded(self, data):
        result = run_comparison(data, {"nh": make_nh}, max_test_windows=4)
        assert result.methods["nh"].fit_seconds >= 0.0

    def test_test_window_thinning_even(self, data):
        result = run_comparison(data, {"nh": make_nh}, max_test_windows=5)
        test = result.methods["nh"].test_indices
        assert len(test) == 5
        # Thinned windows span the whole test range, not just its head.
        assert test[0] == data.split.test[0]
        assert test[-1] == data.split.test[-1]

    def test_no_thinning_when_small(self, data):
        n = len(data.split.test)
        result = run_comparison(data, {"nh": make_nh},
                                max_test_windows=n + 10)
        assert len(result.methods["nh"].test_indices) == n

    def test_predictions_dropped_by_default(self, data):
        result = run_comparison(data, {"nh": make_nh}, max_test_windows=4)
        assert result.methods["nh"].predictions is None

    def test_kept_predictions_are_float32(self, data):
        result = run_comparison(data, {"nh": make_nh},
                                keep_predictions=True, max_test_windows=4)
        assert result.methods["nh"].predictions.dtype == np.float32


class TestComparisonResultTable:
    def _fake(self):
        evaluation = EvaluationResult(
            per_step={"kl": np.array([1.0, 2.0]),
                      "js": np.array([0.1, 0.2]),
                      "emd": np.array([0.5, 0.6])},
            n_cells=np.array([10.0, 8.0]))
        result = ComparisonResult(s=3, h=2)
        result.methods["xx"] = MethodResult(name="xx",
                                            evaluation=evaluation)
        return result

    def test_table_values(self):
        rows = self._fake().table()
        assert rows[0] == {"method": "xx", "step": 1, "kl": 1.0,
                           "js": 0.1, "emd": 0.5}
        assert rows[1]["step"] == 2

    def test_metric_subset(self):
        rows = self._fake().table(metrics=("emd",))
        assert set(rows[0]) == {"method", "step", "emd"}

    def test_format_contains_all_methods(self):
        text = self._fake().format_table()
        assert "xx" in text and "s=3" in text
