"""Tests for the id-order (ablation) coarsening."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.graph import build_proximity, naive_coarsening
from repro.graph.chebconv import GraphPool


@pytest.fixture
def weights(rng):
    return build_proximity(rng.uniform(0, 5, size=(13, 2)))


class TestNaiveCoarsening:
    def test_identity_permutation(self, weights):
        c = naive_coarsening(weights, 2)
        assert np.array_equal(c.perm, np.arange(c.graphs[0].shape[0]))

    def test_sizes_halve(self, weights):
        c = naive_coarsening(weights, 2)
        sizes = [g.shape[0] for g in c.graphs]
        assert sizes[0] == sizes[1] * 2 == sizes[2] * 4

    def test_zero_levels(self, weights):
        c = naive_coarsening(weights, 0)
        assert c.levels == 0
        assert c.graphs[0].shape[0] == 13

    def test_negative_levels_rejected(self, weights):
        with pytest.raises(ValueError):
            naive_coarsening(weights, -1)

    def test_pools_consecutive_ids(self, weights):
        """Mean pooling must average ids (2i, 2i+1) — the spatially
        arbitrary pairing the paper's §V-A2 warns about."""
        c = naive_coarsening(weights, 1)
        pool = GraphPool(c, levels=1)
        x = np.arange(13, dtype=float).reshape(13, 1)
        out = pool(Tensor(x[None])).numpy()[0]
        assert out[0, 0] == pytest.approx(0.5)    # mean(0, 1)
        assert out[5, 0] == pytest.approx(10.5)   # mean(10, 11)
        assert out[6, 0] == pytest.approx(12.0)   # node 12 + fake

    def test_chained_levels_align(self, weights, rng):
        c = naive_coarsening(weights, 2)
        p1 = GraphPool(c, levels=1, start_level=0)
        p2 = GraphPool(c, levels=1, start_level=1)
        x = Tensor(rng.normal(size=(2, 13, 3)))
        out = p2(p1(x))
        assert out.shape == (2, c.graphs[2].shape[0], 3)

    def test_mask_marks_real_nodes(self, weights):
        c = naive_coarsening(weights, 2)
        assert c.real_mask[0].sum() == 13
        assert c.real_mask[0][:13].all()

    def test_usable_in_spatial_factorizer(self, weights, rng):
        from repro.core import GCNNBlock, SpatialFactorizer
        factorizer = SpatialFactorizer(
            weights, n_buckets=3, rank=2, rng=rng,
            blocks=[GCNNBlock(4, 2, 1)], cluster_pooling=False)
        out = factorizer(Tensor(rng.uniform(size=(2, 13, 3))))
        assert out.shape == (2, 2, 3)
