"""Tests for the GRU cell and the seq2seq forecaster."""

import numpy as np

from repro.autodiff import Adam, GRUCell, Seq2Seq, Tensor


class TestGRUCell:
    def test_output_shape(self, rng):
        cell = GRUCell(4, 6, rng)
        h = cell(Tensor(rng.normal(size=(3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_state_bounded_by_tanh_dynamics(self, rng):
        cell = GRUCell(2, 4, rng)
        h = cell.initial_state(1)
        for _ in range(50):
            h = cell(Tensor(rng.normal(size=(1, 2)) * 5), h)
        assert np.abs(h.data).max() <= 1.0 + 1e-9

    def test_zero_update_gate_keeps_state(self, rng):
        cell = GRUCell(2, 3, rng)
        # Force update gate to 1 (u=1 keeps previous state entirely).
        cell.w_update.data[:] = 0.0
        cell.b_update.data[:] = 100.0
        h0 = Tensor(rng.normal(size=(1, 3)))
        h1 = cell(Tensor(rng.normal(size=(1, 2))), h0)
        assert np.allclose(h1.data, h0.data, atol=1e-6)

    def test_gradients_flow_through_time(self, rng):
        cell = GRUCell(2, 3, rng)
        x = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        h = cell.initial_state(1)
        for _ in range(5):
            h = cell(x, h)
        (h ** 2).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0


class TestSeq2Seq:
    def test_forecast_shape(self, rng):
        model = Seq2Seq(4, 6, 4, rng)
        out = model(Tensor(rng.normal(size=(3, 5, 4))), horizon=2)
        assert out.shape == (3, 2, 4)

    def test_different_output_size(self, rng):
        model = Seq2Seq(4, 6, 9, rng)
        out = model(Tensor(rng.normal(size=(2, 5, 4))), horizon=3)
        assert out.shape == (2, 3, 9)

    def test_learns_constant_sequence(self, rng):
        """A seq2seq should learn to forecast a repeating pattern."""
        model = Seq2Seq(2, 16, 2, rng)
        opt = Adam(model.parameters(), lr=0.01)
        t = np.arange(40)
        series = np.stack([np.sin(t * 0.5), np.cos(t * 0.5)], axis=-1)
        histories, targets = [], []
        for i in range(30):
            histories.append(series[i:i + 6])
            targets.append(series[i + 6:i + 8])
        x, y = np.stack(histories), np.stack(targets)
        first = None
        for _ in range(80):
            out = model(Tensor(x), horizon=2)
            loss = ((out - Tensor(y)) ** 2).mean()
            if first is None:
                first = loss.item()
            model.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.3

    def test_all_params_receive_grads(self, rng):
        model = Seq2Seq(3, 4, 3, rng)
        out = model(Tensor(rng.normal(size=(2, 4, 3))), horizon=2)
        (out ** 2).sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing
