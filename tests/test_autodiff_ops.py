"""Tests for differentiable functional ops."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, ops

# Finite-difference gradient checks and float64 closed forms.
pytestmark = pytest.mark.usefixtures("float64")


class TestElementwise:
    def test_exp_log_sqrt_values(self):
        x = Tensor([1.0, 4.0])
        assert np.allclose(ops.exp(x).data, np.exp([1, 4]))
        assert np.allclose(ops.log(x).data, np.log([1, 4]))
        assert np.allclose(ops.sqrt(x).data, [1, 2])

    def test_exp_log_sqrt_grads(self, rng):
        x = Tensor(np.abs(rng.normal(size=(3, 2))) + 0.5,
                   requires_grad=True)
        check_gradients(lambda x: ops.exp(x).sum(), [x])
        check_gradients(lambda x: ops.log(x).sum(), [x])
        check_gradients(lambda x: ops.sqrt(x).sum(), [x])

    def test_sigmoid_range_and_grad(self, rng):
        x = Tensor(rng.normal(size=(4, 3)) * 3, requires_grad=True)
        s = ops.sigmoid(x)
        assert ((s.data > 0) & (s.data < 1)).all()
        check_gradients(lambda x: (ops.sigmoid(x) ** 2).sum(), [x])

    def test_sigmoid_extreme_values_stable(self):
        s = ops.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.allclose(s.data, [0.0, 0.5, 1.0])
        assert np.isfinite(s.data).all()

    def test_tanh_relu(self, rng):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        check_gradients(lambda x: ops.tanh(x).sum(), [x])
        assert (ops.relu(Tensor([-1.0, 2.0])).data == [0.0, 2.0]).all()
        check_gradients(lambda x: (ops.relu(x) * 3.0).sum(), [x])

    def test_maximum(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = ops.maximum(a, b)
        assert np.allclose(out.data, np.maximum(a.data, b.data))
        check_gradients(lambda a, b: (ops.maximum(a, b) ** 2).sum(), [a, b])

    def test_where(self, rng):
        cond = np.array([True, False, True])
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = ops.where(cond, a, b)
        assert out.data[0] == a.data[0] and out.data[1] == b.data[1]
        check_gradients(lambda a, b: (ops.where(cond, a, b) ** 2).sum(),
                        [a, b])


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)) * 5)
        s = ops.softmax(x, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)
        assert (s.data > 0).all()

    def test_invariant_to_shift(self, rng):
        x = rng.normal(size=(3, 5))
        a = ops.softmax(Tensor(x)).data
        b = ops.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_large_logits_stable(self):
        s = ops.softmax(Tensor([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(s.data).all()
        assert s.data[0, 0] == pytest.approx(1.0)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))
        check_gradients(lambda x: (ops.softmax(x, axis=-1)
                                   * Tensor(w)).sum(), [x])

    def test_axis_argument(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        s = ops.softmax(x, axis=1)
        assert np.allclose(s.data.sum(axis=1), 1.0)
        check_gradients(lambda x: (ops.softmax(x, axis=1) ** 2).sum(), [x])


class TestStructural:
    def test_concat_values_and_grads(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 8)
        check_gradients(lambda a, b: (ops.concat([a, b], axis=1) ** 2).sum(),
                        [a, b])

    def test_stack(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = ops.stack([a, b], axis=1)
        assert out.shape == (2, 2, 3)
        check_gradients(lambda a, b: (ops.stack([a, b], axis=1) ** 2).sum(),
                        [a, b])

    def test_pad_axis(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = ops.pad_axis(x, 0, 1, 2)
        assert out.shape == (6, 2)
        assert np.allclose(out.data[0], 0) and np.allclose(out.data[-1], 0)
        check_gradients(lambda x: (ops.pad_axis(x, 0, 1, 2) ** 2).sum(), [x])

    def test_take_axis_with_repeats(self, rng):
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = ops.take_axis(x, idx, 0)
        assert out.shape == (3, 2)
        out.sum().backward()
        assert np.allclose(x.grad[1], 2.0)
        assert np.allclose(x.grad[0], 0.0)

    def test_take_axis_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([4, 0, 0, 2])
        check_gradients(lambda x: (ops.take_axis(x, idx, 0) ** 2).sum(), [x])


class TestPooling:
    def test_mean_pool_values(self):
        x = Tensor(np.arange(8.0).reshape(8, 1))
        out = ops.mean_pool_axis(x, 0, 2)
        assert np.allclose(out.data[:, 0], [0.5, 2.5, 4.5, 6.5])

    def test_pool_requires_divisible(self):
        with pytest.raises(ValueError):
            ops.mean_pool_axis(Tensor(np.zeros((5, 2))), 0, 2)

    def test_mean_pool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        check_gradients(lambda x: (ops.mean_pool_axis(x, 0, 3) ** 2).sum(),
                        [x])

    def test_pool_other_axis(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        out = ops.mean_pool_axis(x, 1, 2)
        assert out.shape == (2, 3, 3)
        check_gradients(lambda x: (ops.mean_pool_axis(x, 1, 2) ** 2).sum(),
                        [x])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = ops.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_zero_rate_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = ops.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones(200_00))
        out = ops.dropout(x, 0.3, np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ops.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_grad_masked(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = ops.dropout(x, 0.5, np.random.default_rng(3))
        out.sum().backward()
        dropped = out.data == 0
        assert np.allclose(x.grad[dropped], 0.0)
        assert np.allclose(x.grad[~dropped], 2.0)
