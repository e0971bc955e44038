"""Tests for weight initializers."""

import numpy as np
import pytest

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


class TestOrthogonal:
    def test_orthogonal_rows(self, rng):
        w = init.orthogonal((6, 10), rng)
        gram = w @ w.T
        assert np.allclose(gram, np.eye(6), atol=1e-8)

    def test_orthogonal_columns_when_tall(self, rng):
        w = init.orthogonal((10, 6), rng)
        gram = w.T @ w
        assert np.allclose(gram, np.eye(6), atol=1e-8)

    def test_gain(self, rng):
        w = init.orthogonal((4, 4), rng, gain=3.0)
        gram = w @ w.T
        assert np.allclose(gram, 9.0 * np.eye(4), atol=1e-8)

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            init.orthogonal((5,), rng)


class TestZeros:
    def test_zeros(self):
        assert init.zeros((3, 2)).sum() == 0.0
