"""Tests for dense layers (Linear, Dropout, MLP, Sequential)."""

import numpy as np
import pytest

from repro.autodiff import (MLP, Activation, Dropout, Linear, Sequential,
                            Tensor, check_gradients, ops)


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(4, 3, rng)
        assert layer(Tensor(rng.normal(size=(7, 4)))).shape == (7, 3)

    def test_leading_axes_broadcast(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((2, 4)))).data.sum() == 0

    def test_matches_manual(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    @pytest.mark.usefixtures("float64")
    def test_gradcheck_params(self, rng):
        layer = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)))

        def loss(w, b):
            layer.weight.data = w.data
            layer.bias.data = b.data
            out = x.matmul(w) + b
            return (out * out).sum()

        w = Tensor(layer.weight.data.copy(), requires_grad=True)
        b = Tensor(layer.bias.data.copy(), requires_grad=True)
        check_gradients(loss, [w, b])


class TestDropoutLayer:
    def test_respects_training_mode(self, rng):
        layer = Dropout(0.9, np.random.default_rng(0))
        x = Tensor(np.ones(1000))
        layer.eval()
        assert np.allclose(layer(x).data, 1.0)
        layer.train()
        assert (layer(x).data == 0).mean() > 0.5


class TestSequential:
    def test_chaining(self, rng):
        seq = Sequential(Linear(3, 5, rng), Activation(ops.relu),
                         Linear(5, 2, rng))
        assert seq(Tensor(rng.normal(size=(4, 3)))).shape == (4, 2)
        assert len(seq) == 3
        assert isinstance(seq[0], Linear)


class TestMLP:
    def test_sizes(self, rng):
        mlp = MLP([4, 8, 8, 3], rng)
        assert mlp(Tensor(rng.normal(size=(2, 4)))).shape == (2, 3)

    def test_too_few_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_output_activation(self, rng):
        mlp = MLP([4, 8, 3], rng,
                  output_activation=lambda t: ops.softmax(t, axis=-1))
        out = mlp(Tensor(rng.normal(size=(5, 4))))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_dropout_layers_present(self, rng):
        mlp = MLP([4, 8, 3], rng, dropout=0.5)
        assert any(isinstance(step, Dropout) for step in mlp.net.steps)

    def test_trains_toward_target(self, rng):
        from repro.autodiff import Adam
        mlp = MLP([2, 16, 1], rng)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2 - x[:, 1:] * 0.5)
        opt = Adam(mlp.parameters(), lr=0.01)
        first = None
        for step in range(150):
            out = mlp(Tensor(x))
            loss = ((out - Tensor(y)) ** 2).mean()
            if first is None:
                first = loss.item()
            mlp.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.1
