"""Tests for the Dirichlet energy (AF regularizer)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.graph import (build_proximity, dirichlet_energy,
                         dirichlet_energy_numpy)


@pytest.fixture
def weights(rng):
    return build_proximity(rng.uniform(0, 4, size=(9, 2)))


class TestDirichletEnergy:
    def test_constant_signal_zero_energy(self, weights):
        x = Tensor(np.ones((9, 4)))
        assert dirichlet_energy(x, weights).item() == pytest.approx(0.0)

    def test_nonnegative(self, weights, rng):
        for _ in range(5):
            x = Tensor(rng.normal(size=(9, 3)))
            assert dirichlet_energy(x, weights).item() >= -1e-9

    def test_matches_numpy_reference(self, weights, rng):
        x = rng.normal(size=(9, 3, 2))
        a = dirichlet_energy(Tensor(x), weights).item()
        b = dirichlet_energy_numpy(x, weights)
        assert a == pytest.approx(b)

    def test_matches_pairwise_formula(self, weights, rng):
        x = rng.normal(size=9)
        energy = dirichlet_energy(Tensor(x.reshape(9, 1)), weights).item()
        direct = 0.5 * sum(weights[i, j] * (x[i] - x[j]) ** 2
                           for i in range(9) for j in range(9))
        assert energy == pytest.approx(direct)

    def test_node_axis_argument(self, weights, rng):
        x = rng.normal(size=(3, 9, 2))
        a = dirichlet_energy(Tensor(x), weights, node_axis=1).item()
        b = sum(dirichlet_energy_numpy(x[i], weights) for i in range(3))
        assert a == pytest.approx(b)

    def test_smoother_signal_lower_energy(self, weights, rng):
        rough = rng.normal(size=(9, 1))
        # Smooth by diffusing over the graph.
        smoother = weights + np.eye(9)
        smoother = smoother / smoother.sum(axis=1, keepdims=True)
        smooth = smoother @ (smoother @ rough)
        e_rough = dirichlet_energy_numpy(rough, weights)
        e_smooth = dirichlet_energy_numpy(smooth, weights)
        assert e_smooth < e_rough

    @pytest.mark.usefixtures("float64")
    def test_gradcheck(self, weights, rng):
        x = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
        check_gradients(lambda x: dirichlet_energy(x, weights), [x])
        x = Tensor(rng.normal(size=(3, 9, 2)), requires_grad=True)
        check_gradients(
            lambda x: dirichlet_energy(x, weights, node_axis=1), [x])

    def test_wrong_node_count(self, weights):
        with pytest.raises(ValueError):
            dirichlet_energy(Tensor(np.zeros((8, 2))), weights)
