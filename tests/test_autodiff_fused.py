"""Parity tests for the fused autodiff kernels.

Every fused op in :mod:`repro.autodiff.ops` has a primitive-op oracle
in ``tests/oracles.py``.  These tests feed identical float64 inputs to
both and require matching outputs and matching analytic gradients
(tolerance well under 1e-6), plus finite-difference gradchecks of the
fused backward closures, shape/dtype edge cases, whole-factorizer and
whole-AF-model parity against the oracles, and a bit-for-bit
determinism check for the parallel experiment runner.  ChebConv,
recovery and the Dirichlet energy run as primitive ops and keep their
gradchecks here.
"""

import multiprocessing

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, ops, profile
from repro.core.af import AdvancedFramework
from repro.core.spatial import SpatialFactorizer, factorize_tensor_batch
from repro.core.recovery import recover
from repro.experiments import (MethodBudget, make_bf, make_nh, prepare,
                               run_comparison)
from repro.graph import ChebConv
from repro.graph.energy import dirichlet_energy
from tests import oracles

# Gradient checks, and kernel-vs-oracle parity at float64 tolerances.
pytestmark = pytest.mark.usefixtures("float64")

PARITY = dict(rtol=1e-9, atol=1e-9)     # far below the 1e-6 requirement


def _params(arrays):
    return [Tensor(np.array(a), requires_grad=True) for a in arrays]


def _random_proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def assert_parity(fused_fn, reference_fn, arrays, seed):
    """Run the fused op and its oracle on identical inputs; compare
    outputs and grads.

    ``arrays`` are raw numpy inputs turned into fresh requires-grad
    Tensors per path; the backward seed is a fixed random cotangent so
    non-sum reductions are exercised too.
    """
    fused_in = _params(arrays)
    ref_in = _params(arrays)
    out_fused = fused_fn(*fused_in)
    out_ref = reference_fn(*ref_in)
    assert out_fused.shape == out_ref.shape
    assert np.allclose(out_fused.data, out_ref.data, **PARITY)
    cotangent = np.random.default_rng(seed).normal(size=out_ref.shape)
    if cotangent.ndim == 0:
        out_fused.backward()
        out_ref.backward()
    else:
        out_fused.backward(grad=cotangent)
        out_ref.backward(grad=cotangent)
    for i, (a, b) in enumerate(zip(fused_in, ref_in)):
        assert b.grad is not None, f"reference input {i} got no gradient"
        assert a.grad is not None, f"fused input {i} got no gradient"
        assert np.allclose(a.grad, b.grad, **PARITY), (
            f"gradient mismatch on input {i}: "
            f"max diff {np.max(np.abs(a.grad - b.grad)):.3e}")
    return fused_in, ref_in


class TestChebConv:
    # ChebConv runs as primitive ops; the gradcheck covers the input,
    # weight and bias adjoints of its composed forward.
    def test_gradcheck(self, rng):
        w = _random_proximity(4, rng)
        conv = ChebConv(3, 3, order=2, weights=w, rng=rng)
        conv.bias.data[:] = rng.normal(size=3)
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        check_gradients(lambda t, wt, b: (conv(t) ** 2).sum(),
                        [x, conv.weight, conv.bias])


class TestGruGates:
    def test_parity(self, rng):
        hidden, inputs = 5, 3
        x = rng.normal(size=(4, inputs))
        h = rng.normal(size=(4, hidden))
        joint = hidden + inputs
        weights = [rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,))]
        assert_parity(ops.fused_gru_gates, oracles.fused_gru_gates,
                      [x, h] + weights, seed=6)

    def test_parity_batched_leading_dims(self, rng):
        # The fused cell supports arbitrary leading axes.
        hidden, inputs = 4, 3
        x = rng.normal(size=(2, 3, inputs))
        h = rng.normal(size=(2, 3, hidden))
        joint = hidden + inputs
        weights = [rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,))]
        assert_parity(ops.fused_gru_gates, oracles.fused_gru_gates,
                      [x, h] + weights, seed=7)

    def test_gradcheck(self, rng):
        hidden, inputs = 3, 2
        joint = hidden + inputs
        tensors = _params(
            [rng.normal(size=(2, inputs)), rng.normal(size=(2, hidden)),
             rng.normal(size=(joint, hidden)), rng.normal(size=(hidden,)),
             rng.normal(size=(joint, hidden)), rng.normal(size=(hidden,)),
             rng.normal(size=(joint, hidden)), rng.normal(size=(hidden,))])
        check_gradients(
            lambda *a: (ops.fused_gru_gates(*a) ** 2).sum(), tensors)


class TestCnrnnCell:
    def _inputs(self, rng, n=6, channels=3, hidden=4, order=3, batch=2):
        lap = rng.normal(size=(n, n))
        joint = channels + hidden
        arrays = [rng.normal(size=(batch, n, channels)),
                  rng.normal(size=(batch, n, hidden))]
        for _ in range(3):
            arrays.append(rng.normal(size=(joint * order, hidden)) * 0.4)
            arrays.append(rng.normal(size=(hidden,)))
        # Interleave weight/bias into the op's (w, b) x 3 ordering.
        x, h, wr, br, wu, bu, wc, bc = arrays
        return lap, order, [x, h, wr, br, wu, bu, wc, bc]

    def test_parity(self, rng):
        lap, order, arrays = self._inputs(rng)
        assert_parity(
            lambda *a: ops.fused_cnrnn_cell(lap, *a, order),
            lambda *a: oracles.fused_cnrnn_cell(lap, *a, order),
            arrays, seed=8)

    def test_gradcheck(self, rng):
        lap, order, arrays = self._inputs(rng, n=4, channels=2, hidden=3,
                                          order=2)
        tensors = _params(arrays)
        check_gradients(
            lambda *a: (ops.fused_cnrnn_cell(lap, *a, order) ** 2).sum(),
            tensors)


class TestModelParity:
    def test_factorizer_matches_oracle(self, rng):
        # Stage 1 of both sides (the chunked fused kernels) against the
        # primitive factorizer composition; different weights per side.
        w = _random_proximity(12, rng)
        factor_r = SpatialFactorizer(w, 4, 3, np.random.default_rng(1))
        factor_c = SpatialFactorizer(w, 4, 3, np.random.default_rng(2))
        tensors = rng.normal(size=(2, 12, 12, 4))

        def run(factorize):
            for p in factor_r.parameters():
                p.grad = None
            for p in factor_c.parameters():
                p.grad = None
            x = Tensor(tensors.copy(), requires_grad=True)
            r, c = factorize(factor_r, factor_c, x)
            loss = (r ** 2).sum() + (c ** 2).sum()
            loss.backward()
            grads = [np.array(p.grad) for p in factor_r.parameters()]
            grads += [np.array(p.grad) for p in factor_c.parameters()]
            return (r.data.copy(), c.data.copy(), np.array(x.grad), grads)

        r_f, c_f, xg_f, grads_f = run(factorize_tensor_batch)
        r_r, c_r, xg_r, grads_r = run(oracles.factorize_tensor_batch)
        assert np.allclose(r_f, r_r, **PARITY)
        assert np.allclose(c_f, c_r, **PARITY)
        assert np.allclose(xg_f, xg_r, **PARITY)
        for gf, gr in zip(grads_f, grads_r):
            assert np.allclose(gf, gr, **PARITY)

    def test_full_af_model_parity(self, rng, request):
        # End-to-end: factorizers, CNRNNs, recovery — the fused kernels
        # vs the oracles must agree on the loss and on every parameter
        # grad.
        w = _random_proximity(8, rng)
        model = AdvancedFramework(w, w, 4, np.random.default_rng(0),
                                  rank=3, rnn_hidden=6, rnn_order=2)
        model.eval()                      # dropout off: deterministic
        history = rng.uniform(size=(2, 3, 8, 8, 4))

        def run():
            model.zero_grad()
            prediction, r, c = model(history, 2)
            loss = (prediction ** 2).sum() + (r * c.transpose(
                (0, 1, 3, 2, 4))).sum()
            loss.backward()
            return (float(loss.item()),
                    {k: np.array(p.grad)
                     for k, p in model.named_parameters()})

        loss_f, grads_f = run()
        request.getfixturevalue("oracle_kernels")
        with profile() as profiler:
            loss_r, grads_r = run()
        # The fixture took every kernel off the fused path.
        assert not [op for op in profiler.as_dict()
                    if op.startswith("fused_")]
        assert loss_f == pytest.approx(loss_r, rel=1e-12)
        assert grads_f.keys() == grads_r.keys()
        for key in grads_f:
            assert np.allclose(grads_f[key], grads_r[key], **PARITY), (
                f"grad mismatch for {key}: "
                f"{np.max(np.abs(grads_f[key] - grads_r[key])):.3e}")


class TestSoftmaxRecovery:
    # recover() is the transpose-matmul-softmax composition.
    def test_output_is_distribution(self, rng):
        r = Tensor(rng.normal(size=(4, 3, 5)))
        c = Tensor(rng.normal(size=(3, 4, 5)))
        out = recover(r, c)
        assert np.allclose(out.data.sum(axis=-1), 1.0)
        assert (out.data >= 0).all()

    def test_gradcheck(self, rng):
        r = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        check_gradients(lambda a, b: (recover(a, b) ** 2).sum(), [r, c])


class TestMaskedFrobenius:
    def test_parity(self, rng):
        truth = rng.uniform(size=(2, 3, 3, 4))
        mask = (rng.uniform(size=(2, 3, 3)) < 0.5).astype(float)
        prediction = rng.normal(size=(2, 3, 3, 4))
        assert_parity(
            lambda p: ops.fused_masked_frobenius(p, truth, mask),
            lambda p: oracles.fused_masked_frobenius(p, truth, mask),
            [prediction], seed=12)

    def test_parity_empty_mask(self, rng):
        truth = rng.uniform(size=(2, 3, 3, 4))
        mask = np.zeros((2, 3, 3))
        assert_parity(
            lambda p: ops.fused_masked_frobenius(p, truth, mask),
            lambda p: oracles.fused_masked_frobenius(p, truth, mask),
            [rng.normal(size=(2, 3, 3, 4))], seed=13)

    def test_parity_broadcast_prediction(self, rng):
        # Regression: a horizon-1 prediction scored against multi-step
        # truth broadcasts; the fused backward must fold the gradient
        # back to the prediction's shape like the primitive path does.
        truth = rng.uniform(size=(2, 2, 3, 3, 4))
        mask = (rng.uniform(size=(2, 2, 3, 3)) < 0.5).astype(float)
        prediction = rng.normal(size=(2, 1, 3, 3, 4))
        fused_in, _ = assert_parity(
            lambda p: ops.fused_masked_frobenius(p, truth, mask),
            lambda p: oracles.fused_masked_frobenius(p, truth, mask),
            [prediction], seed=14)
        assert fused_in[0].grad.shape == prediction.shape

    def test_gradcheck(self, rng):
        truth = rng.uniform(size=(2, 3, 3, 2))
        mask = (rng.uniform(size=(2, 3, 3)) < 0.6).astype(float)
        p = Tensor(rng.normal(size=(2, 3, 3, 2)), requires_grad=True)
        check_gradients(
            lambda t: ops.fused_masked_frobenius(t, truth, mask), [p])


class TestDirichletEnergy:
    def test_gradcheck(self, rng):
        w = _random_proximity(4, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda t: dirichlet_energy(t, w), [x])
        # A non-leading node axis takes the transpose branch.
        y = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        check_gradients(lambda t: dirichlet_energy(t, w, node_axis=1), [y])


TINY = MethodBudget(epochs=1, batch_size=8, max_train_batches=2,
                    max_val_batches=1, patience=1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker pool needs fork start method")
class TestParallelDeterminism:
    def test_n_jobs_matches_serial_bit_for_bit(self, dataset):
        data = prepare(dataset, s=3, h=2)
        roster = {"nh": make_nh, "bf": lambda d: make_bf(d, TINY)}

        def run(n_jobs):
            result = run_comparison(data, roster, keep_predictions=True,
                                    max_test_windows=4, n_jobs=n_jobs)
            return result.methods

        serial = run(1)
        pooled = run(2)
        assert set(serial) == set(pooled)
        for name in serial:
            eval_s = serial[name].evaluation
            eval_p = pooled[name].evaluation
            assert eval_s.per_step.keys() == eval_p.per_step.keys()
            for metric in eval_s.per_step:
                assert np.array_equal(eval_s.per_step[metric],
                                      eval_p.per_step[metric]), (
                    f"{name}/{metric} differs between n_jobs=1 and 2")
            assert np.array_equal(serial[name].predictions,
                                  pooled[name].predictions)
