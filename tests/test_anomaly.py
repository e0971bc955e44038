"""Tests for NaN-provenance anomaly mode (repro.autodiff.detect_anomaly)
and the numerical-domain guards on sigmoid/log/division."""

import numpy as np
import pytest

from repro.autodiff import AnomalyError, Tensor, detect_anomaly, ops
from repro.autodiff.rnn import GRUCell


def _checked() -> bool:
    """Whether an op that overflows raises :class:`AnomalyError` here."""
    x = Tensor(np.array([1000.0]), requires_grad=True)
    with np.errstate(over="ignore"):
        try:
            ops.exp(x)
        except AnomalyError:
            return True
    return False


class TestDetectAnomalyContext:
    def test_disabled_by_default(self):
        assert not _checked()

    def test_context_enables_and_restores(self):
        with detect_anomaly():
            assert _checked()
        assert not _checked()

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with detect_anomaly():
                raise RuntimeError("boom")
        assert not _checked()

    def test_nested_disable(self):
        with detect_anomaly():
            with detect_anomaly(False):
                assert not _checked()
            assert _checked()


class TestForwardAnomaly:
    def test_names_the_overflowing_op(self):
        x = Tensor(np.array([1000.0]), requires_grad=True)
        with detect_anomaly(), np.errstate(over="ignore"):
            with pytest.raises(AnomalyError) as err:
                ops.exp(x)
        assert err.value.op == "exp"
        assert err.value.phase == "forward"
        assert "input shapes" in str(err.value)

    def test_clean_graph_unaffected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with detect_anomaly():
            loss = (ops.tanh(x) * x).sum()
            loss.backward()
        assert np.isfinite(x.grad).all()

    def test_off_context_lets_nonfinite_through(self):
        x = Tensor(np.array([1000.0]))
        with np.errstate(over="ignore"):
            result = ops.exp(x)                  # no context: no check
        assert np.isinf(result.data).all()

    def test_nan_input_blamed_on_first_consuming_op(self):
        x = Tensor(np.array([np.nan]), requires_grad=True)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as err:
                ops.tanh(x)
        assert err.value.op == "tanh"


class TestBackwardAnomaly:
    def test_backward_nonfinite_grad_is_attributed(self):
        # sqrt'(x) = 1/(2 sqrt x) is infinite at 0: forward is clean,
        # the backward pass is where the non-finite value appears.
        x = Tensor(np.array([0.0]), requires_grad=True)
        y = ops.sqrt(x)
        with detect_anomaly(), np.errstate(divide="ignore"):
            with pytest.raises(AnomalyError) as err:
                y.backward()
        assert err.value.phase == "backward"
        assert err.value.op == "sqrt"


class TestFusedAndReference:
    @pytest.mark.parametrize("fused", [True, False])
    def test_gru_cell_anomaly_names_op_both_modes(self, fused, request):
        if not fused:
            request.getfixturevalue("oracle_kernels")
        cell = GRUCell(4, 3, np.random.default_rng(0))
        cell.w_reset.data[0, 0] = np.nan
        x = Tensor(np.ones((2, 4)))
        h = cell.initial_state(2)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as err:
                cell(x, h)
        assert err.value.op and err.value.op != "?"

    def test_fused_kernel_blames_fused_op(self):
        cell = GRUCell(4, 3, np.random.default_rng(0))
        cell.w_reset.data[0, 0] = np.nan
        with detect_anomaly():
            with pytest.raises(AnomalyError) as err:
                cell(Tensor(np.ones((2, 4))), cell.initial_state(2))
        assert "fused" in err.value.op


class TestNumericalGuards:
    def test_sigmoid_never_overflows(self):
        # promoted-to-error RuntimeWarnings make any overflow fail here
        x = Tensor(np.array([-1e5, -710.0, 0.0, 710.0, 1e5]),
                   requires_grad=True)
        y = ops.sigmoid(x)
        assert np.isfinite(y.data).all()
        assert y.data[0] == 0.0 and y.data[-1] == 1.0
        y.sum().backward()
        assert np.isfinite(x.grad).all()

    def test_sigmoid_matches_naive_in_safe_range(self):
        x = np.linspace(-30, 30, 101)
        naive = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(ops.sigmoid(Tensor(x)).data, naive,
                           atol=1e-15)

    def test_log_of_zero_raises_with_op_name(self):
        with pytest.raises(ValueError, match="log"):
            ops.log(Tensor(np.array([1.0, 0.0])))

    def test_log_of_negative_raises(self):
        with pytest.raises(ValueError, match="zero/negative"):
            ops.log(Tensor(np.array([-1.0])))

    def test_log_suggests_a_fix(self):
        with pytest.raises(ValueError, match="clip"):
            ops.log(Tensor(np.array([0.0])))

    def test_division_by_zero_tensor_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="truediv"):
            x / Tensor(np.array([1.0, 0.0, 2.0]))

    def test_division_by_nonzero_fine(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x / Tensor(np.array([2.0, 4.0]))
        assert np.allclose(y.data, [0.5, 0.25])
