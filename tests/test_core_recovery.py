"""Tests for the recovery stage."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.core import recover
from repro.core.recovery import publish


class TestRecover:
    def test_output_shape_and_validity(self, rng):
        r = Tensor(rng.normal(size=(2, 3, 6, 4, 5)))   # (B,h,N,beta,K)
        c = Tensor(rng.normal(size=(2, 3, 4, 7, 5)))   # (B,h,beta,N',K)
        out = recover(r, c)
        assert out.shape == (2, 3, 6, 7, 5)
        assert np.allclose(out.numpy().sum(axis=-1), 1.0)
        assert (out.numpy() > 0).all()

    def test_unbatched(self, rng):
        r = Tensor(rng.normal(size=(6, 4, 5)))
        c = Tensor(rng.normal(size=(4, 7, 5)))
        assert recover(r, c).shape == (6, 7, 5)

    def test_matches_manual_per_bucket_matmul(self, rng):
        r = rng.normal(size=(3, 2, 4))
        c = rng.normal(size=(2, 5, 4))
        out = recover(Tensor(r), Tensor(c)).numpy()
        for k in range(4):
            scores = r[:, :, k] @ c[:, :, k]
            e = np.exp(scores - scores.max())
            # softmax is per-cell over buckets, so compare via raw scores:
            # verify ordering is consistent instead of absolute values.
            raw = np.stack([r[:, :, kk] @ c[:, :, kk] for kk in range(4)],
                           axis=-1)
            manual = np.exp(raw - raw.max(axis=-1, keepdims=True))
            manual /= manual.sum(axis=-1, keepdims=True)
            assert np.allclose(out, manual)

    def test_rank_mismatch_raises(self, rng):
        r = Tensor(rng.normal(size=(3, 2, 4)))
        c = Tensor(rng.normal(size=(3, 5, 4)))
        with pytest.raises(ValueError):
            recover(r, c)

    def test_bucket_mismatch_raises(self, rng):
        r = Tensor(rng.normal(size=(3, 2, 4)))
        c = Tensor(rng.normal(size=(2, 5, 3)))
        with pytest.raises(ValueError):
            recover(r, c)

    @pytest.mark.usefixtures("float64")
    def test_gradients_flow_to_both_factors(self, rng):
        r = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        target = rng.uniform(size=(3, 5, 4))
        check_gradients(
            lambda r, c: ((recover(r, c) - Tensor(target)) ** 2).sum(),
            [r, c])

    def test_rank_one_factors(self, rng):
        r = Tensor(rng.normal(size=(3, 1, 2)))
        c = Tensor(rng.normal(size=(1, 3, 2)))
        out = recover(r, c)
        assert out.shape == (3, 3, 2)
        assert np.allclose(out.numpy().sum(-1), 1.0)


class TestPublish:
    def test_float32_forecast_becomes_float64_histograms(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(2, 6, 7, 5)).astype(np.float32)
        forecast = np.exp(scores) / np.exp(scores).sum(-1, keepdims=True)
        before = forecast.copy()
        published = publish(forecast)
        assert published.dtype == np.float64
        np.testing.assert_allclose(published.sum(axis=-1), 1.0, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(published, forecast, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(forecast, before)   # input untouched

    def test_float64_forecast_is_copied(self):
        forecast = np.random.default_rng(1).dirichlet(np.ones(5), size=(3, 4))
        published = publish(forecast)
        assert published is not forecast
        np.testing.assert_allclose(published, forecast, rtol=0, atol=1e-15)
