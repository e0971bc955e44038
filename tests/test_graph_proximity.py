"""Tests for proximity matrices."""

import numpy as np
import pytest

from repro.graph import (ProximityConfig, build_proximity, ensure_connected,
                         pairwise_distances, proximity_matrix)


@pytest.fixture
def centroids(rng):
    return rng.uniform(0, 5, size=(15, 2))


class TestPairwiseDistances:
    def test_symmetry_and_zero_diagonal(self, centroids):
        d = pairwise_distances(centroids)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_known_values(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == pytest.approx(5.0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 3)))


class TestProximityMatrix:
    def test_weights_in_unit_interval(self, centroids):
        w = proximity_matrix(centroids, ProximityConfig(sigma=2, alpha=3))
        assert (w >= 0).all() and (w <= 1).all()
        assert np.allclose(np.diag(w), 0.0)
        assert np.allclose(w, w.T)

    def test_threshold_cuts_far_pairs(self, centroids):
        config = ProximityConfig(sigma=2.0, alpha=1.0)
        w = proximity_matrix(centroids, config)
        d = pairwise_distances(centroids)
        assert (w[d > 1.0] == 0).all()
        near = (d <= 1.0) & (d > 0)
        if near.any():
            assert (w[near] > 0).all()

    def test_closer_means_larger_weight(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        w = proximity_matrix(pts, ProximityConfig(sigma=2.0, alpha=10.0))
        assert w[0, 1] > w[0, 2]

    def test_sigma_controls_decay(self):
        pts = np.array([[0.0, 0.0], [1.5, 0.0]])
        narrow = proximity_matrix(pts, ProximityConfig(sigma=0.5, alpha=10))
        wide = proximity_matrix(pts, ProximityConfig(sigma=5.0, alpha=10))
        assert wide[0, 1] > narrow[0, 1]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ProximityConfig(sigma=0.0)
        with pytest.raises(ValueError):
            ProximityConfig(alpha=-1.0)


class TestEnsureConnected:
    def test_isolated_node_gets_neighbor(self):
        # Node 2 is far away; alpha cuts all its edges.
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [100.0, 0.0]])
        w = proximity_matrix(pts, ProximityConfig(sigma=1.0, alpha=1.0))
        assert w[2].sum() == 0
        fixed = ensure_connected(w, pairwise_distances(pts))
        assert fixed[2].sum() > 0
        assert np.allclose(fixed, fixed.T)

    def test_no_change_when_connected(self, centroids):
        w = proximity_matrix(centroids, ProximityConfig(sigma=3, alpha=10))
        assert np.allclose(ensure_connected(w), w)

    def test_build_proximity_always_connected(self, rng):
        pts = np.vstack([rng.uniform(0, 1, size=(10, 2)),
                         [[50.0, 50.0]]])
        w = build_proximity(pts, ProximityConfig(sigma=1.0, alpha=1.0))
        assert (w.sum(axis=1) > 0).all()
