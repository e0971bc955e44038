"""Tests for the reverse-mode autodiff Tensor."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, ops, tensor, zeros, ones

# Finite-difference gradient checks and float64 closed forms.
pytestmark = pytest.mark.usefixtures("float64")


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_from_int_array_casts(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float64

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.item() == 3.5
        assert t.size == 1

    def test_helpers(self):
        assert zeros((2, 3)).data.sum() == 0
        assert ones((2, 3)).data.sum() == 6
        assert tensor([1.0]).shape == (1,)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))


class TestBackwardBasics:
    def test_scalar_backward_default_seed(self):
        a = Tensor(2.0, requires_grad=True)
        (a * a).backward()
        assert a.grad == pytest.approx(4.0)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_nonscalar_needs_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_explicit_grad_shape_checked(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 2
        with pytest.raises(ValueError):
            b.backward(grad=np.ones(3))

    def test_gradient_accumulates_on_reuse(self):
        a = Tensor(3.0, requires_grad=True)
        (a * a + a).backward()   # d/da = 2a + 1 = 7
        assert a.grad == pytest.approx(7.0)

    def test_retain_graph_allows_second_backward(self):
        a = Tensor(2.0, requires_grad=True)
        b = a * a
        b.backward(retain_graph=True)
        first = float(a.grad)
        a.grad = None
        b.backward()
        assert float(a.grad) == pytest.approx(first)

    def test_diamond_graph_total_derivative(self):
        # f = (a*2) + (a*3); df/da = 5
        a = Tensor(1.0, requires_grad=True)
        (a * 2 + a * 3).backward()
        assert a.grad == pytest.approx(5.0)


class TestArithmetic:
    def test_add_sub_mul_div_values(self):
        a, b = Tensor([4.0, 9.0]), Tensor([2.0, 3.0])
        assert np.allclose((a + b).data, [6, 12])
        assert np.allclose((a - b).data, [2, 6])
        assert np.allclose((a * b).data, [8, 27])
        assert np.allclose((a / b).data, [2, 3])

    def test_reflected_ops_with_scalars(self):
        a = Tensor([2.0], requires_grad=True)
        assert np.allclose((3.0 + a).data, [5])
        assert np.allclose((3.0 - a).data, [1])
        assert np.allclose((3.0 * a).data, [6])
        assert np.allclose((4.0 / a).data, [2])

    def test_gradcheck_binary_ops(self, rng):
        a = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
        check_gradients(lambda a, b: (a * b).sum(), [a, b])
        check_gradients(lambda a, b: (a / b).sum(), [a, b])
        check_gradients(lambda a, b: (a - b).sum(), [a, b])

    def test_gradcheck_broadcasting(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        check_gradients(lambda a, b: ((a + b) * (a * b)).sum(), [a, b])

    def test_gradcheck_scalar_broadcast(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(2.5, requires_grad=True)
        check_gradients(lambda a, b: (a * b + b).sum(), [a, b])

    def test_pow(self, rng):
        a = Tensor(np.abs(rng.normal(size=(3,))) + 0.5, requires_grad=True)
        check_gradients(lambda a: (a ** 3).sum(), [a])
        with pytest.raises(TypeError):
            a ** np.array([1.0, 2.0, 3.0])

    def test_neg(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(lambda a: (-a * 2.0).sum(), [a])


class TestMatmul:
    def test_2d(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (3, 5)
        check_gradients(lambda a, b: (a @ b).sum(), [a, b])

    def test_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        check_gradients(lambda a, b: (a @ b).sum(), [a, b])

    def test_broadcast_batch(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        check_gradients(lambda a, b: ((a @ b) ** 2).sum(), [a, b])

    def test_matrix_vector(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = a @ v
        assert out.shape == (3,)
        check_gradients(lambda a, v: (a @ v).sum(), [a, v])

    def test_vector_matrix(self, rng):
        v = Tensor(rng.normal(size=(3,)), requires_grad=True)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = v @ a
        assert out.shape == (4,)
        check_gradients(lambda v, a: (v @ a).sum(), [v, a])


class TestReductions:
    def test_sum_axes(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert a.sum().size == 1
        assert a.sum(axis=1).shape == (2, 4)
        assert a.sum(axis=(0, 2)).shape == (3,)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1, 4)
        check_gradients(lambda a: (a.sum(axis=1) ** 2).sum(), [a])

    def test_mean(self, rng):
        a = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        assert a.mean().item() == pytest.approx(a.data.mean())
        assert np.allclose(a.mean(axis=0).data, a.data.mean(axis=0))
        check_gradients(lambda a: (a.mean(axis=1) ** 2).sum(), [a])

    def test_max(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert a.max().item() == pytest.approx(a.data.max())
        check_gradients(lambda a: a.max(axis=1).sum(), [a])

    def test_max_tie_splits_gradient(self):
        a = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5, 0.0]])


class TestShapeOps:
    def test_reshape(self, rng):
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        assert a.reshape(3, 4).shape == (3, 4)
        assert a.reshape((4, 3)).shape == (4, 3)
        assert a.reshape(2, -1).shape == (2, 6)
        check_gradients(lambda a: (a.reshape(12) ** 2).sum(), [a])

    def test_transpose(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert a.transpose().shape == (4, 3, 2)
        assert a.transpose((1, 0, 2)).shape == (3, 2, 4)
        assert a.T.shape == (4, 3, 2)
        check_gradients(lambda a: (a.transpose((2, 0, 1)) ** 2).sum(), [a])

    def test_transpose_negative_axes_backward(self, rng):
        """Regression: argsort on raw negative axes built a wrong inverse
        permutation, scattering the gradient to the wrong axes."""
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert a.transpose((0, -1, 1)).shape == (2, 4, 3)
        weights = rng.normal(size=(2, 4, 3))
        loss = (a.transpose((0, -1, 1)) * Tensor(weights)).sum()
        loss.backward()
        assert np.allclose(a.grad, weights.transpose(0, 2, 1))
        check_gradients(
            lambda a: (a.transpose((0, -1, 1)) ** 2).sum(), [a])
        check_gradients(
            lambda a: (a.transpose((-1, -2, -3)) ** 3).sum(), [a])

    def test_swapaxes(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert a.swapaxes(0, 2).shape == (4, 3, 2)
        check_gradients(lambda a: (a.swapaxes(1, 2) ** 2).sum(), [a])

    def test_getitem_slice(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert a[1:3].shape == (2, 5)
        assert a[:, 2].shape == (4,)
        check_gradients(lambda a: (a[1:3, ::2] ** 2).sum(), [a])

    def test_getitem_integer_array(self, rng):
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        out = a[idx]
        assert out.shape == (4, 3)
        # repeated index 2 must accumulate gradient twice
        out.sum().backward()
        assert a.grad[2].sum() == pytest.approx(6.0)
        assert a.grad[1].sum() == pytest.approx(0.0)

    def test_expand_squeeze(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert a.expand_dims(1).shape == (3, 1, 4)
        assert a.expand_dims(1).squeeze(1).shape == (3, 4)
        check_gradients(lambda a: (a.expand_dims(0) ** 2).sum(), [a])

    def test_len(self):
        assert len(Tensor(np.zeros((7, 2)))) == 7
