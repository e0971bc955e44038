"""Tests for the global dtype switch (float32 by default)."""

import numpy as np
import pytest

from repro.autodiff import (Tensor, get_default_dtype, ops,
                            set_default_dtype)


@pytest.fixture
def float32_mode():
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


class TestDtypeSwitch:
    def test_default_is_float32(self):
        assert get_default_dtype() is np.float32
        assert Tensor([1.0]).data.dtype == np.float32

    def test_switch_returns_the_previous_dtype(self):
        previous = set_default_dtype(np.float64)
        try:
            assert previous is np.float32
            assert set_default_dtype(np.float64) is np.float64
        finally:
            assert set_default_dtype(previous) is np.float64
        assert get_default_dtype() is np.float32

    def test_float32_tensors(self, float32_mode):
        assert Tensor([1.0]).data.dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype \
            == np.float32

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)
        with pytest.raises(ValueError):
            set_default_dtype(np.float16)

    def test_ops_stay_float32(self, float32_mode):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        assert ops.softmax(x).data.dtype == np.float32
        assert ops.sigmoid(x).data.dtype == np.float32
        assert (x @ Tensor(np.zeros((5, 2)))).data.dtype == np.float32

    def test_backward_in_float32(self, float32_mode):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        (ops.tanh(x) ** 2).sum().backward()
        assert x.grad.dtype == np.float32

    def test_training_step_float32(self, float32_mode):
        from repro.autodiff import Adam, Linear
        rng = np.random.default_rng(1)
        layer = Linear(4, 2, rng)
        assert layer.weight.data.dtype == np.float32
        opt = Adam(layer.parameters(), lr=1e-3)
        out = layer(Tensor(rng.normal(size=(8, 4))))
        (out ** 2).sum().backward()
        opt.step()
        assert layer.weight.data.dtype == np.float32

    def test_full_model_float32(self, float32_mode):
        from repro.core import BasicFramework
        rng = np.random.default_rng(2)
        model = BasicFramework(5, 5, 3, rng, rank=2, encoder_dim=4,
                               hidden_dim=6)
        pred, _, _ = model(rng.uniform(size=(2, 3, 5, 5, 3)), horizon=1)
        assert pred.data.dtype == np.float32
        assert np.allclose(pred.numpy().sum(-1), 1.0, atol=1e-5)

    def test_af_non_square_step_keeps_float32_gradients(self, float32_mode):
        """Regression: the Dirichlet energy's backward multiplied by the
        float64 graph Laplacian and handed float64 gradients to every
        stage-2 parameter of an AF whose two sides differ in size."""
        from repro.core import AdvancedFramework, af_loss
        rng = np.random.default_rng(11)

        def proximity(n):
            w = rng.uniform(0.1, 1.0, size=(n, n))
            w = (w + w.T) / 2.0
            np.fill_diagonal(w, 0.0)
            return w

        w_o, w_d = proximity(8), proximity(10)
        model = AdvancedFramework(w_o, w_d, 7, np.random.default_rng(7),
                                  rank=3, rnn_hidden=8, rnn_order=2,
                                  dropout=0.2)
        history = rng.uniform(size=(4, 3, 8, 10, 7))
        truth = rng.uniform(size=(4, 2, 8, 10, 7))
        mask = (rng.uniform(size=(4, 2, 8, 10)) < 0.4).astype(float)
        prediction, r, c = model(history, 2)
        af_loss(prediction, truth, mask, r, c, w_o, w_d).backward()
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, name
            assert parameter.grad.dtype == np.float32, name


class TestDropoutDtype:
    def test_mask_does_not_upcast_float32(self):
        """Regression: the dropout mask was float64, silently upcasting
        activations and gradients under float32 training."""
        previous = set_default_dtype(np.float32)
        try:
            x = Tensor(np.ones((16, 16), dtype=np.float32),
                       requires_grad=True)
            out = ops.dropout(x, 0.5, np.random.default_rng(0))
            out.sum().backward()
            assert out.data.dtype == np.float32
            assert x.grad.dtype == np.float32
        finally:
            set_default_dtype(previous)
