"""Tests for the BF and AF losses."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.core import af_loss, bf_loss, factor_dirichlet, masked_frobenius
from repro.graph import build_proximity


@pytest.fixture
def pieces(rng):
    pred = Tensor(rng.uniform(0.1, 0.9, size=(2, 2, 4, 4, 3)),
                  requires_grad=True)
    truth = rng.uniform(0.1, 0.9, size=(2, 2, 4, 4, 3))
    mask = rng.random(size=(2, 2, 4, 4)) < 0.5
    r = Tensor(rng.normal(size=(2, 2, 4, 2, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 2, 2, 4, 3)), requires_grad=True)
    return pred, truth, mask, r, c


class TestMaskedFrobenius:
    def test_zero_when_equal_on_mask(self, pieces, rng):
        pred, truth, mask, _, _ = pieces
        matched = truth.copy()
        matched[~mask] = rng.uniform(size=((~mask).sum(), 3))  # junk outside
        loss = masked_frobenius(Tensor(matched), truth, mask)
        assert loss.item() == pytest.approx(0.0)

    def test_ignores_unobserved_cells(self, pieces):
        pred, truth, mask, _, _ = pieces
        base = masked_frobenius(pred, truth, mask).item()
        corrupted = truth.copy()
        corrupted[~mask] += 100.0
        assert masked_frobenius(pred, corrupted, mask).item() \
            == pytest.approx(base)

    def test_normalized_by_observed_count(self, pieces):
        pred, truth, mask, _, _ = pieces
        dense = np.ones_like(mask, dtype=bool)
        sparse_loss = masked_frobenius(pred, truth, mask).item()
        dense_loss = masked_frobenius(pred, truth, dense).item()
        # Both are per-cell means: same order of magnitude.
        assert 0.1 < sparse_loss / max(dense_loss, 1e-12) < 10

    def test_all_masked_no_nan(self, pieces):
        pred, truth, _, _, _ = pieces
        empty = np.zeros((2, 2, 4, 4), dtype=bool)
        assert masked_frobenius(pred, truth, empty).item() == 0.0

    @pytest.mark.usefixtures("float64")
    def test_gradcheck(self, rng):
        pred = Tensor(rng.normal(size=(1, 1, 3, 3, 2)), requires_grad=True)
        truth = rng.normal(size=(1, 1, 3, 3, 2))
        mask = rng.random(size=(1, 1, 3, 3)) < 0.6
        check_gradients(lambda p: masked_frobenius(p, truth, mask), [pred])


class TestBFLoss:
    def test_regularizers_increase_loss(self, pieces):
        pred, truth, mask, r, c = pieces
        bare = bf_loss(pred, truth, mask, r, c, 0.0, 0.0).item()
        regularized = bf_loss(pred, truth, mask, r, c, 0.1, 0.1).item()
        assert regularized > bare

    def test_gradients_reach_factors(self, pieces):
        pred, truth, mask, r, c = pieces
        bf_loss(pred, truth, mask, r, c, 0.1, 0.1).backward()
        assert r.grad is not None and np.abs(r.grad).sum() > 0
        assert c.grad is not None and np.abs(c.grad).sum() > 0

    def test_zero_lambda_skips_factor_grads(self, pieces):
        pred, truth, mask, r, c = pieces
        bf_loss(pred, truth, mask, r, c, 0.0, 0.0).backward()
        assert r.grad is None and c.grad is None


class TestAFLoss:
    def test_dirichlet_prefers_smooth_factors(self, rng):
        weights = build_proximity(rng.uniform(0, 3, size=(4, 2)))
        pred = Tensor(rng.uniform(size=(1, 1, 4, 4, 3)))
        truth = pred.numpy().copy()
        mask = np.ones((1, 1, 4, 4), dtype=bool)
        rough = Tensor(rng.normal(size=(1, 1, 4, 2, 3)))
        smooth = Tensor(np.ones((1, 1, 4, 2, 3)))
        c = Tensor(np.zeros((1, 1, 2, 4, 3)))
        loss_rough = af_loss(pred, truth, mask, rough, c, weights, weights,
                             lambda_r=1.0, lambda_c=0.0).item()
        loss_smooth = af_loss(pred, truth, mask, smooth, c, weights,
                              weights, lambda_r=1.0, lambda_c=0.0).item()
        assert loss_smooth < loss_rough

    def test_uses_correct_graphs(self, rng):
        """R regularized under origin graph (axis N), C under dest graph."""
        w_o = build_proximity(rng.uniform(0, 3, size=(4, 2)))
        w_d = build_proximity(rng.uniform(0, 3, size=(5, 2)))
        pred = Tensor(rng.uniform(size=(1, 1, 4, 5, 3)))
        truth = pred.numpy().copy()
        mask = np.ones((1, 1, 4, 5), dtype=bool)
        r = Tensor(rng.normal(size=(1, 1, 4, 2, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(1, 1, 2, 5, 3)), requires_grad=True)
        loss = af_loss(pred, truth, mask, r, c, w_o, w_d,
                       lambda_r=1.0, lambda_c=1.0)
        loss.backward()
        assert r.grad.shape == r.shape
        assert c.grad.shape == c.shape

    @pytest.mark.usefixtures("float64")
    def test_factor_dirichlet_gradcheck(self, rng):
        weights = build_proximity(rng.uniform(0, 3, size=(4, 2)))
        r = Tensor(rng.normal(size=(2, 4, 3, 2)), requires_grad=True)
        check_gradients(lambda r: factor_dirichlet(r, weights, 1), [r])
