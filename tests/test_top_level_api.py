"""Tests of the package's public surface."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", [
        "repro.autodiff", "repro.graph", "repro.regions", "repro.trips",
        "repro.histograms", "repro.core", "repro.baselines",
        "repro.metrics", "repro.experiments", "repro.persistence",
        "repro.forecast", "repro.viz", "repro.cli",
    ])
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a module docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_default_dtype_is_float32(self):
        import numpy as np

        from repro.autodiff import get_default_dtype
        assert get_default_dtype() is np.float32

    def test_quickstart_snippet_objects_exist(self):
        """The README quickstart names must exist with the documented
        signatures."""
        from repro import full_roster, prepare, run_comparison, toy_dataset
        assert callable(prepare) and callable(run_comparison)
        assert callable(full_roster) and callable(toy_dataset)
