"""Tests for the GCNN spatial factorizer (AF stage 1)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.core import (GCNNBlock, ShardedExecution, SpatialFactorizer,
                        factorize_tensor_batch, shardexec)
from repro.graph import build_proximity, plan_shards


@pytest.fixture
def weights(rng):
    return build_proximity(rng.uniform(0, 5, size=(12, 2)))


@pytest.fixture
def factorizer(weights, rng):
    return SpatialFactorizer(weights, n_buckets=4, rank=3, rng=rng,
                             blocks=[GCNNBlock(8, 3, 1), GCNNBlock(6, 2, 1)])


class TestSpatialFactorizer:
    def test_output_shape(self, factorizer, rng):
        out = factorizer(Tensor(rng.uniform(size=(5, 12, 4))))
        assert out.shape == (5, 3, 4)

    def test_pooled_size_consistent(self, factorizer):
        # Two single-level pools: ~12/4 clusters (padding dependent),
        # the rows of the rank projection.
        pooled_size = factorizer.latent_proj.weight.shape[0]
        assert 3 <= pooled_size <= 6

    def test_gcnn_block_validation(self):
        with pytest.raises(ValueError):
            GCNNBlock(filters=0, order=2)
        with pytest.raises(ValueError):
            GCNNBlock(filters=2, order=0)

    def test_requires_blocks(self, weights, rng):
        with pytest.raises(ValueError):
            SpatialFactorizer(weights, 4, 3, rng, blocks=[])

    def test_no_pooling_block(self, weights, rng):
        f = SpatialFactorizer(weights, 4, 3, rng,
                              blocks=[GCNNBlock(8, 2, 0)])
        out = f(Tensor(rng.uniform(size=(2, 12, 4))))
        assert out.shape == (2, 3, 4)

    def test_shape_error(self, factorizer):
        with pytest.raises(ValueError, match="batch, nodes, K"):
            factorizer(Tensor(np.zeros((12, 4))))

    def test_gradients_flow(self, factorizer, rng):
        x = Tensor(rng.uniform(size=(3, 12, 4)), requires_grad=True)
        (factorizer(x) ** 2).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0
        missing = [n for n, p in factorizer.named_parameters()
                   if p.grad is None]
        assert not missing

    def test_spatially_smooth_inputs_produce_similar_codes(
            self, weights, rng):
        """Two inputs that differ only on one region should produce
        closer codes than two unrelated inputs (locality sanity)."""
        f = SpatialFactorizer(weights, 4, 3, rng,
                              blocks=[GCNNBlock(8, 2, 1)])
        base = rng.uniform(size=(1, 12, 4))
        bumped = base.copy()
        bumped[0, 0] += 0.3
        unrelated = rng.uniform(size=(1, 12, 4))
        out_base = f(Tensor(base)).numpy()
        out_bump = f(Tensor(bumped)).numpy()
        out_other = f(Tensor(unrelated)).numpy()
        assert np.abs(out_base - out_bump).mean() \
            < np.abs(out_base - out_other).mean()


class TestFactorizeTensorBatch:
    def test_shapes(self, rng):
        w_o = build_proximity(rng.uniform(0, 5, size=(6, 2)))
        w_d = build_proximity(rng.uniform(0, 5, size=(8, 2)))
        f_r = SpatialFactorizer(w_d, 3, 2, rng, blocks=[GCNNBlock(4, 2, 1)])
        f_c = SpatialFactorizer(w_o, 3, 2, rng, blocks=[GCNNBlock(4, 2, 1)])
        tensors = Tensor(rng.uniform(size=(5, 6, 8, 3)))
        r, c = factorize_tensor_batch(f_r, f_c, tensors)
        assert r.shape == (5, 6, 2, 3)
        assert c.shape == (5, 2, 8, 3)


@pytest.mark.usefixtures("float64")
class TestChunkLoopGradients:
    """Finite-difference checks of stage 1's chunk loop
    (``core/shardexec.py``): the chunk input gather, the input-gradient
    scatter, the per-chunk gradient sums and the zero-slice collapse."""

    K = 3
    BLOCKS = [GCNNBlock(3, 3, 1), GCNNBlock(2, 2, 1)]

    def _city(self):
        """Factorizers of a 5-origin, 4-destination city with two
        pooling stages, nonzero biases (so no ReLU sits on its kink at
        an empty slice), and a float64 batch of two intervals with two
        empty origin rows and two empty destination columns."""
        rng = np.random.default_rng(5)
        w_o = build_proximity(rng.uniform(0, 5, size=(5, 2)))
        w_d = build_proximity(rng.uniform(0, 5, size=(4, 2)))
        f_r = SpatialFactorizer(w_d, self.K, 2, rng, blocks=self.BLOCKS)
        f_c = SpatialFactorizer(w_o, self.K, 2, rng, blocks=self.BLOCKS)
        params = f_r.parameters() + f_c.parameters()
        for p in params:
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        tensors = rng.uniform(size=(2, 5, 4, self.K))
        tensors[0, 1] = tensors[1, 3] = 0.0
        tensors[0, :, 0] = tensors[1, :, 2] = 0.0
        return f_r, f_c, params, tensors, (w_o, w_d)

    @staticmethod
    def _loss(f_r, f_c, execution=None):
        def loss(x, *params):
            r, c = factorize_tensor_batch(f_r, f_c, x, execution=execution)
            return (r ** 2).sum() + (c ** 2).sum()
        return loss

    def _split_chunks(self, monkeypatch, f_r, f_c, tensors):
        """Patch the chunk size so every side runs at least 2 chunks."""
        stages = [shardexec._side_stages(f)[0] for f in (f_r, f_c)]
        per_slice = max(st[0].pool.rows * self.K * 8 for st in stages)
        monkeypatch.setattr(shardexec, "_CHUNK_BYTES", 2 * per_slice)
        batch, n_origins, n_dests, _ = tensors.shape
        for st, n_side in zip(stages, (n_origins, n_dests)):
            assert shardexec._chunk_slices(st, tensors.dtype) \
                < batch * n_side

    def test_dense_input_and_weight_gradients(self, monkeypatch):
        f_r, f_c, params, tensors, _ = self._city()
        self._split_chunks(monkeypatch, f_r, f_c, tensors)
        x = Tensor(tensors, requires_grad=True)
        check_gradients(self._loss(f_r, f_c), [x] + params)

    def test_blocked_weight_gradients(self, monkeypatch):
        f_r, f_c, params, tensors, weights = self._city()
        self._split_chunks(monkeypatch, f_r, f_c, tensors)
        plan = plan_shards(*weights, n_shards=2, hops=1)
        execution = ShardedExecution(plan, mode="blocked")
        check_gradients(self._loss(f_r, f_c, execution),
                        [Tensor(tensors)] + params)
        assert execution.last_occupancy["r"]["occupied"] < 10
        assert execution.last_occupancy["c"]["occupied"] < 8
