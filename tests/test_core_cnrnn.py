"""Tests for the CNRNN (graph-convolutional GRU)."""

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor
from repro.core import CNRNNCell, GraphSeq2Seq
from repro.graph import build_proximity


@pytest.fixture
def weights(rng):
    return build_proximity(rng.uniform(0, 4, size=(8, 2)))


class TestCNRNNCell:
    def test_state_shape(self, weights, rng):
        cell = CNRNNCell(weights, in_channels=3, hidden_channels=5,
                         order=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 8, 3)))
        h = cell(x, cell.initial_state(2))
        assert h.shape == (2, 8, 5)

    def test_state_bounded(self, weights, rng):
        cell = CNRNNCell(weights, 2, 4, order=2, rng=rng)
        h = cell.initial_state(1)
        for _ in range(30):
            h = cell(Tensor(rng.normal(size=(1, 8, 2)) * 5), h)
        assert np.abs(h.data).max() <= 1.0 + 1e-9

    def test_gradients_through_time(self, weights, rng):
        cell = CNRNNCell(weights, 2, 3, order=2, rng=rng)
        x = Tensor(rng.normal(size=(1, 8, 2)), requires_grad=True)
        h = cell.initial_state(1)
        for _ in range(4):
            h = cell(x, h)
        (h ** 2).sum().backward()
        assert np.abs(x.grad).sum() > 0

    def test_spatial_mixing(self, weights, rng):
        """With order >= 2 the state of a region depends on its
        neighbours' inputs — the whole point of CNRNN."""
        cell = CNRNNCell(weights, 1, 2, order=3, rng=rng)
        x = np.zeros((1, 8, 1))
        h0 = cell.initial_state(1)
        base = cell(Tensor(x), h0).numpy()
        neighbour = int(np.argmax(weights[0]))
        x2 = x.copy()
        x2[0, neighbour, 0] = 5.0
        bumped = cell(Tensor(x2), cell.initial_state(1)).numpy()
        assert not np.allclose(base[0, 0], bumped[0, 0])


class TestGraphSeq2Seq:
    def test_forecast_shape(self, weights, rng):
        model = GraphSeq2Seq(weights, in_channels=4, hidden_channels=6,
                             out_channels=4, order=2, rng=rng)
        out = model(Tensor(rng.normal(size=(2, 5, 8, 4))), horizon=3)
        assert out.shape == (2, 3, 8, 4)

    def test_different_out_channels(self, weights, rng):
        model = GraphSeq2Seq(weights, 4, 6, 2, order=2, rng=rng)
        out = model(Tensor(rng.normal(size=(1, 3, 8, 4))), horizon=2)
        assert out.shape == (1, 2, 8, 2)

    def test_rejects_wrong_ndim(self, weights, rng):
        model = GraphSeq2Seq(weights, 4, 6, 4, order=2, rng=rng)
        with pytest.raises(ValueError):
            model(Tensor(rng.normal(size=(5, 8, 4))), horizon=1)

    def test_all_params_receive_gradients(self, weights, rng):
        model = GraphSeq2Seq(weights, 3, 4, 3, order=2, rng=rng)
        out = model(Tensor(rng.normal(size=(2, 3, 8, 3))), horizon=2)
        (out ** 2).sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing

    def test_learns_periodic_graph_signal(self, weights, rng):
        """CNRNN seq2seq should fit a simple oscillating graph signal."""
        model = GraphSeq2Seq(weights, 1, 8, 1, order=2, rng=rng)
        t = np.arange(30)
        series = np.sin(t[:, None] * 0.7 + np.arange(8) * 0.2)[..., None]
        histories = np.stack([series[i:i + 4] for i in range(20)])
        targets = np.stack([series[i + 4:i + 5] for i in range(20)])
        opt = Adam(model.parameters(), lr=0.02)
        first = None
        for _ in range(60):
            out = model(Tensor(histories), horizon=1)
            loss = ((out - Tensor(targets)) ** 2).mean()
            if first is None:
                first = loss.item()
            model.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.5
