"""Shared benchmark fixtures: datasets, budgets, trained comparisons.

Every table/figure benchmark draws from the fixtures here so each
(city, s) training sweep happens exactly once per benchmark session.

Scale control
-------------
``REPRO_BENCH_SCALE=full``  (default) — full-size cities (67/79 regions,
    8 days of trips) and real training budgets; the whole suite takes
    tens of minutes on one core.
``REPRO_BENCH_SCALE=smoke`` — 12-region toy cities and tiny budgets for
    a fast end-to-end check of the harness itself (~2 minutes).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import (MethodBudget, full_roster, prepare,
                               run_comparison)
from repro.trips import chengdu_like_dataset, nyc_like_dataset, toy_dataset

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")
SMOKE = SCALE == "smoke"


def pytest_report_header(config):
    return f"repro benchmarks: scale={SCALE}"


@pytest.fixture(scope="session")
def budget():
    """Training budget for the dense deep methods (FC, BF)."""
    if SMOKE:
        return MethodBudget(epochs=2, batch_size=8, max_train_batches=4,
                            max_val_batches=2, patience=2)
    return MethodBudget(epochs=14, batch_size=16, max_train_batches=24,
                        max_val_batches=4, patience=5)


@pytest.fixture(scope="session")
def af_budget():
    """AF's budget: its deeper graph pipeline needs a higher learning
    rate and more optimization steps (found by the tuning sweeps
    documented in EXPERIMENTS.md)."""
    if SMOKE:
        return MethodBudget(epochs=2, batch_size=8, max_train_batches=4,
                            max_val_batches=2, patience=2,
                            learning_rate=3e-3)
    return MethodBudget(epochs=16, batch_size=16, max_train_batches=25,
                        max_val_batches=4, patience=6,
                        learning_rate=3e-3)


@pytest.fixture(scope="session")
def sweep_budget():
    """Cheaper budget for per-point sweeps (Fig. 14, ablations)."""
    if SMOKE:
        return MethodBudget(epochs=1, batch_size=8, max_train_batches=3,
                            max_val_batches=1, patience=1,
                            learning_rate=3e-3)
    return MethodBudget(epochs=5, batch_size=16, max_train_batches=10,
                        max_val_batches=3, patience=3,
                        learning_rate=3e-3)


@pytest.fixture(scope="session")
def nyc_dataset():
    if SMOKE:
        return toy_dataset(n_days=3, n_regions=12, seed=1)
    return nyc_like_dataset(n_days=6, trips_per_interval=450.0, seed=0)


@pytest.fixture(scope="session")
def cd_dataset():
    if SMOKE:
        return toy_dataset(n_days=3, n_regions=14, seed=2)
    return chengdu_like_dataset(n_days=6, trips_per_interval=450.0,
                                seed=100)


MAX_TEST_WINDOWS = 12 if SMOKE else 24


def _comparison(dataset, s, budget, af_budget, keep_predictions):
    data = prepare(dataset, s=s, h=3)
    result = run_comparison(data, full_roster(budget, af_budget),
                            keep_predictions=keep_predictions,
                            max_test_windows=MAX_TEST_WINDOWS)
    return data, result


@pytest.fixture(scope="session")
def nyc_s6(nyc_dataset, budget, af_budget):
    """NYC, s=6: shared by Table II and Figures 8-13."""
    return _comparison(nyc_dataset, 6, budget, af_budget,
                       keep_predictions=True)


@pytest.fixture(scope="session")
def nyc_s3(nyc_dataset, budget, af_budget):
    return _comparison(nyc_dataset, 3, budget, af_budget,
                       keep_predictions=False)


@pytest.fixture(scope="session")
def cd_s6(cd_dataset, budget, af_budget):
    return _comparison(cd_dataset, 6, budget, af_budget,
                       keep_predictions=True)


@pytest.fixture(scope="session")
def cd_s3(cd_dataset, budget, af_budget):
    return _comparison(cd_dataset, 3, budget, af_budget,
                       keep_predictions=False)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Training sweeps are far too heavy for statistical repetition; one
    timed round still registers wall-clock in the benchmark table.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1,
                              warmup_rounds=0)
