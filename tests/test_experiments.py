"""Tests for the experiment harness (runner, methods, figure drivers)."""

import numpy as np
import pytest

from repro.experiments import (MethodBudget, distance_analysis, full_roster,
                               make_af, make_bf, make_nh, prepare,
                               proximity_sweep, run_comparison,
                               sparseness_report, time_of_day_analysis)

TINY = MethodBudget(epochs=1, batch_size=8, max_train_batches=2,
                    max_val_batches=1, patience=1)


@pytest.fixture(scope="module")
def data(dataset):
    return prepare(dataset, s=3, h=2)


@pytest.fixture(scope="module")
def comparison(data):
    roster = {"nh": make_nh,
              "bf": lambda d: make_bf(d, TINY),
              "af": lambda d: make_af(d, TINY)}
    return run_comparison(data, roster, keep_predictions=True,
                          max_test_windows=10)


class TestPrepare:
    def test_structure(self, data, dataset):
        assert data.windows.s == 3 and data.windows.h == 2
        assert data.city.n_regions == dataset.city.n_regions
        assert len(data.split.train) > len(data.split.val)

    def test_proximity_square(self, data):
        w = data.origin_proximity()
        assert w.shape == (data.city.n_regions,) * 2


class TestRunComparison:
    def test_all_methods_present(self, comparison):
        assert set(comparison.methods) == {"nh", "bf", "af"}

    def test_table_rows(self, comparison):
        rows = comparison.table()
        assert len(rows) == 3 * 2      # methods x steps
        assert {"method", "step", "kl", "js", "emd"} <= set(rows[0])
        assert all(np.isfinite(row["emd"]) for row in rows)

    def test_format_table_runs(self, comparison):
        text = comparison.format_table()
        assert "method" in text and "af" in text

    def test_predictions_kept(self, comparison):
        for method in comparison.methods.values():
            assert method.predictions is not None
            assert np.allclose(method.predictions.sum(-1), 1.0)

    def test_max_test_windows_respected(self, comparison):
        for method in comparison.methods.values():
            assert len(method.test_indices) <= 10


class TestSparsenessReport:
    def test_structure(self, data):
        report = sparseness_report(data.sequence)
        assert 0 < report["overall_pair_coverage"] <= 1
        assert set(report["by_min_trips"]) == {1, 3, 5}
        levels = report["by_min_trips"]
        # Stricter preprocessing can only lower coverage.
        assert levels[5]["mean_cell_coverage"] \
            <= levels[1]["mean_cell_coverage"]


class TestTimeOfDayAnalysis:
    def test_blocks_and_shares(self, data, comparison):
        out = time_of_day_analysis(data, comparison, metric="emd")
        assert set(out) == {"nh", "bf", "af"}
        for result in out.values():
            assert result["value"].shape == (8,)
            assert result["share"].sum() == pytest.approx(1.0)

    def test_respects_metric_argument(self, data, comparison):
        emd_out = time_of_day_analysis(data, comparison, metric="emd")
        kl_out = time_of_day_analysis(data, comparison, metric="kl")
        a, b = emd_out["nh"]["value"], kl_out["nh"]["value"]
        valid = ~(np.isnan(a) | np.isnan(b))
        assert not np.allclose(a[valid], b[valid])


class TestDistanceAnalysis:
    def test_bands(self, data, comparison):
        out = distance_analysis(data, comparison, metric="emd")
        for result in out.values():
            assert result["value"].shape[0] == 6
            assert result["share"].sum() == pytest.approx(1.0)


class TestProximitySweep:
    def test_sigma_sweep(self, data):
        result = proximity_sweep(data, "sigma", [0.5, 1.5], budget=TINY,
                                 max_test_windows=6)
        assert result.parameter == "sigma"
        assert len(result.metrics["emd"]) == 2
        assert all(np.isfinite(v) for v in result.metrics["emd"])

    def test_invalid_parameter(self, data):
        with pytest.raises(ValueError):
            proximity_sweep(data, "gamma", [1.0])


class TestFullRoster:
    def test_contains_all_seven_methods(self):
        roster = full_roster(TINY)
        assert set(roster) == {"nh", "gp", "var", "mr", "fc", "bf", "af"}
