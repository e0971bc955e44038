"""Tests for weight initializers."""

import numpy as np

from repro.autodiff import init


class TestXavier:
    def test_uniform_bounds(self, rng):
        w = init.xavier_uniform((50, 80), rng)
        bound = np.sqrt(6.0 / (50 + 80))
        assert np.abs(w).max() <= bound + 1e-12
        assert w.shape == (50, 80)

    def test_uniform_gain_scales(self, rng):
        small = init.xavier_uniform((40, 40), np.random.default_rng(0),
                                    gain=0.5)
        large = init.xavier_uniform((40, 40), np.random.default_rng(0),
                                    gain=2.0)
        assert np.abs(large).max() > np.abs(small).max()

    def test_1d_shape(self, rng):
        w = init.xavier_uniform((64,), rng)
        assert w.shape == (64,)

    def test_fan_from_last_two_axes(self, rng):
        w = init.xavier_uniform((5, 30, 40), rng)
        bound = np.sqrt(6.0 / 70)
        assert np.abs(w).max() <= bound + 1e-12


class TestZeros:
    def test_zeros(self):
        assert init.zeros((3, 2)).sum() == 0.0
