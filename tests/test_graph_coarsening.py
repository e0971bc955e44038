"""Tests for Graclus coarsening and the pooling permutation."""

import numpy as np
import pytest

from repro.graph import (coarsen_adjacency, coarsen_graph,
                         heavy_edge_matching)


@pytest.fixture
def weights(rng):
    from repro.graph import build_proximity
    pts = rng.uniform(0, 6, size=(14, 2))
    return build_proximity(pts)


class TestHeavyEdgeMatching:
    def test_clusters_cover_all_nodes(self, weights):
        cluster = heavy_edge_matching(weights)
        assert (cluster >= 0).all()
        assert len(cluster) == len(weights)

    def test_cluster_sizes_at_most_two(self, weights):
        cluster = heavy_edge_matching(weights)
        _, counts = np.unique(cluster, return_counts=True)
        assert counts.max() <= 2

    def test_matched_pairs_are_neighbors(self, weights):
        cluster = heavy_edge_matching(weights)
        for cid in np.unique(cluster):
            members = np.flatnonzero(cluster == cid)
            if len(members) == 2:
                i, j = members
                assert weights[i, j] > 0

    def test_roughly_halves(self, weights):
        cluster = heavy_edge_matching(weights)
        n_coarse = cluster.max() + 1
        assert n_coarse <= len(weights)
        assert n_coarse >= len(weights) / 2

    def test_isolated_nodes_become_singletons(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        cluster = heavy_edge_matching(w)
        assert cluster[0] == cluster[1]
        assert cluster[2] != cluster[0]


class TestCoarsenAdjacency:
    def test_weight_conservation_off_diagonal(self):
        w = np.array([[0, 2, 1, 0],
                      [2, 0, 0, 3],
                      [1, 0, 0, 1],
                      [0, 3, 1, 0]], dtype=float)
        cluster = np.array([0, 0, 1, 1])
        coarse = coarsen_adjacency(w, cluster)
        # edges between the clusters: (0,2)+(0,3)+(1,2)+(1,3) = 1+0+0+3
        assert coarse[0, 1] == pytest.approx(4.0)
        assert coarse[0, 0] == 0.0  # self loops dropped

    def test_symmetry_preserved(self, weights):
        cluster = heavy_edge_matching(weights)
        coarse = coarsen_adjacency(weights, cluster)
        assert np.allclose(coarse, coarse.T)


class TestCoarsenGraph:
    def test_zero_levels_is_identity(self, weights):
        c = coarsen_graph(weights, 0)
        assert np.allclose(c.graphs[0], weights)
        assert np.array_equal(c.perm, np.arange(len(weights)))

    def test_level_count(self, weights):
        c = coarsen_graph(weights, 2)
        assert len(c.graphs) == 3
        assert c.levels == 2

    def test_padded_size_divisible(self, weights):
        c = coarsen_graph(weights, 2)
        assert c.graphs[0].shape[0] % 4 == 0
        assert c.graphs[0].shape[0] // 4 == c.graphs[2].shape[0]

    def test_perm_contains_all_real_nodes(self, weights):
        c = coarsen_graph(weights, 2)
        real = c.perm[c.perm < len(weights)]
        assert sorted(real) == list(range(len(weights)))

    def test_blocks_are_spatial_clusters(self, weights):
        """Consecutive stride-2 blocks of the perm must be matched pairs
        (or contain fakes), i.e. real pairs in a block share an edge."""
        c = coarsen_graph(weights, 1)
        n = len(weights)
        for b in range(len(c.perm) // 2):
            i, j = c.perm[2 * b], c.perm[2 * b + 1]
            if i < n and j < n:
                assert weights[i, j] > 0

    def test_negative_levels_rejected(self, weights):
        with pytest.raises(ValueError):
            coarsen_graph(weights, -1)

    def test_deep_coarsening_of_path_graph(self):
        n = 16
        w = np.zeros((n, n))
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 1.0
        c = coarsen_graph(w, 3)
        assert c.graphs[0].shape[0] % 8 == 0
        # Path graphs match perfectly: minimal padding expected.
        assert c.graphs[0].shape[0] <= 2 * n
