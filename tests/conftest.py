"""Shared fixtures: small cities, datasets, and tensor sequences.

Everything here is session-scoped and deterministic so the suite stays
fast; tests that need mutation make their own copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import get_default_dtype, set_default_dtype
from repro.histograms import WindowDataset, build_od_tensors, chronological_split
from repro.regions import toy_city
from repro.trips import toy_dataset
from tests import oracles


@pytest.fixture(autouse=True)
def _default_dtype_unchanged():
    """Fail any test that leaves the library dtype other than it found
    it: a leaked switch would run the rest of the session in it."""
    found = get_default_dtype()
    yield
    left = get_default_dtype()
    if left is not found:
        set_default_dtype(found)
        pytest.fail(f"test left the default dtype at {np.dtype(left).name}, "
                    f"found {np.dtype(found).name}")


@pytest.fixture
def float64():
    """Run a test in float64: the numerical gradient checks and the
    parity tests with float64 tolerances need it."""
    previous = set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def city():
    return toy_city(seed=3, n_regions=12)


@pytest.fixture(scope="session")
def dataset():
    return toy_dataset(n_days=3, n_regions=12, seed=42)


@pytest.fixture(scope="session")
def sequence(dataset):
    return build_od_tensors(dataset.trips, dataset.city,
                            n_intervals=dataset.field.n_intervals)


@pytest.fixture(scope="session")
def windows(sequence):
    return WindowDataset(sequence, s=3, h=2)


@pytest.fixture(scope="session")
def split(windows):
    return chronological_split(windows)


@pytest.fixture(scope="session")
def proximity(dataset):
    return dataset.city.proximity()


@pytest.fixture
def oracle_kernels(monkeypatch):
    """Run every fused kernel, and the AF's stage 1, as its primitive-op
    composition from ``tests/oracles.py`` for the duration of a test."""
    oracles.install(monkeypatch)
