"""Tests for the inference tapes (:class:`repro.autodiff.InferenceEngine`).

The engine's contract (docs/EXECUTION.md) is that a replayed forward is
*bit-for-bit* identical to the eager forward while skipping graph
reconstruction.  Everything here asserts exact equality, not allclose:
one ulp of drift would break the served ≡ ``forecast_latest`` gate.
"""

import numpy as np
import pytest

import repro.autodiff as autodiff
from repro.autodiff import (InferenceEngine, Module, Tensor, detect_anomaly,
                            ops, profile)
from repro.core import AdvancedFramework, BasicFramework


def _history(rng, batch=4, s=3, n=8, k=7, n_dest=None):
    n_dest = n if n_dest is None else n_dest
    return rng.uniform(size=(batch, s, n, n_dest, k))


def _proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _bf_model(dropout=0.2):
    return BasicFramework(8, 8, 7, np.random.default_rng(7), rank=3,
                          encoder_dim=8, hidden_dim=12, dropout=dropout)


def _af_model(dropout=0.2, n=8, k=7, n_dest=None):
    rng = np.random.default_rng(11)
    w = _proximity(n, rng)
    w_dest = w if n_dest is None else _proximity(n_dest, rng)
    return AdvancedFramework(w, w_dest, k, np.random.default_rng(7),
                             rank=3, rnn_hidden=8, rnn_order=2,
                             dropout=dropout)


class TestProfiler:
    def test_profile_counts_forward_and_backward(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with profile() as profiler:
            loss = ops.sigmoid(x).sum()
            loss.backward()
        stats = profiler.as_dict()
        assert stats["sigmoid"]["forward_calls"] == 1
        assert stats["sigmoid"]["backward_calls"] == 1
        assert stats["sigmoid"]["forward_seconds"] >= 0.0
        assert "sum" in stats
        table = profiler.format_table()
        assert "sigmoid" in table and "fwd calls" in table

    def test_profile_sees_replayed_ops(self):
        model = _bf_model()
        history = _history(np.random.default_rng(0))
        engine = InferenceEngine(model)
        engine.predict(history, 2)           # capture (unprofiled)
        with profile() as profiler:
            engine.predict(history, 2)
        stats = profiler.as_dict()
        assert engine.stats()["replays"] == 1
        assert stats["fused_gru_gates"]["forward_calls"] > 0

    def test_profile_restores_previous_and_emits_telemetry(self):
        events = []
        with profile(telemetry=lambda event, fields: events.append(
                (event, fields))):
            Tensor(np.ones(2), requires_grad=True).sum().backward()
        # A fresh op after the block must not be recorded anywhere.
        Tensor(np.ones(2), requires_grad=True).sum().backward()
        assert len(events) == 1
        event, fields = events[0]
        assert event == "profile"
        assert fields["total_seconds"] >= 0.0
        assert "sum" in fields["ops"]


class TestDropoutDtype:
    def test_mask_does_not_upcast_float32(self):
        """Regression: the dropout mask was float64, silently upcasting
        activations and gradients under float32 training."""
        previous = autodiff.set_default_dtype(np.float32)
        try:
            x = Tensor(np.ones((16, 16), dtype=np.float32),
                       requires_grad=True)
            out = ops.dropout(x, 0.5, np.random.default_rng(0))
            out.sum().backward()
            assert out.data.dtype == np.float32
            assert x.grad.dtype == np.float32
        finally:
            autodiff.set_default_dtype(previous)


class TestInferenceEngine:
    """Forward-only serving tapes (the repro.serve hot path)."""

    def _eager(self, model, history, horizon=2):
        model.eval()
        prediction, _, _ = model(history, horizon)
        return np.array(prediction.data, copy=True)

    def test_capture_then_replay_bit_identical(self):
        model = _bf_model()
        history = _history(np.random.default_rng(0))
        expected = self._eager(model, history)
        engine = InferenceEngine(model)
        first = engine.predict(history, 2)
        second = engine.predict(history, 2)
        third = engine.predict(history, 2)
        for out in (first, second, third):
            np.testing.assert_array_equal(out, expected)
        stats = engine.stats()
        assert stats["captures"] == 1
        assert stats["replays"] == 2
        assert stats["eager_steps"] == 0

    def test_returns_are_independent_copies(self):
        """Arena buffers are reused between requests; handing a view out
        would let the next request mutate a caller's answer."""
        model = _bf_model()
        history = _history(np.random.default_rng(0))
        engine = InferenceEngine(model)
        first = engine.predict(history, 2)
        kept = first.copy()
        engine.predict(history * 0.5, 2)     # same signature, new data
        np.testing.assert_array_equal(first, kept)

    def test_eval_forced_during_predict_and_training_restored(self):
        """Dropout must never leak into a serving capture, and predict
        must not flip a model that a trainer still owns."""
        model = _bf_model(dropout=0.5)
        history = _history(np.random.default_rng(0))
        model.train()
        engine = InferenceEngine(model)
        first = engine.predict(history, 2)
        second = engine.predict(history, 2)
        assert model.training
        np.testing.assert_array_equal(first, second)

    def test_signature_change_captures_new_tape_with_lru_eviction(self):
        model = _bf_model()
        big = _history(np.random.default_rng(0), batch=4)
        small = _history(np.random.default_rng(1), batch=2)
        engine = InferenceEngine(model, max_tapes=1)
        engine.predict(big, 2)
        engine.predict(small, 2)             # evicts the big tape
        assert engine.stats()["tapes"] == 1
        engine.predict(big, 2)               # must recapture, not replay
        stats = engine.stats()
        assert stats["captures"] == 3
        assert stats["replays"] == 0

    def test_declines_under_detect_anomaly(self):
        model = _bf_model()
        history = _history(np.random.default_rng(0))
        engine = InferenceEngine(model)
        expected = self._eager(model, history)
        with detect_anomaly():
            out = engine.predict(history, 2)
        np.testing.assert_array_equal(out, expected)
        stats = engine.stats()
        assert stats["eager_steps"] == 1
        assert stats["captures"] == 0


class TestBitForBitParity:
    """A replayed forward must equal the eager forward exactly."""

    @pytest.mark.parametrize("model_fn, n_dest", [
        (_bf_model, None),
        (_af_model, None),
        # 8 origins x 10 destinations: the two CNRNN sides differ in size.
        (lambda: _af_model(n_dest=10), 10),
    ], ids=["bf", "af", "af-8x10"])
    def test_parity_holds_in_float32(self, model_fn, n_dest):
        """Under float32 every replayed kernel must write the captured
        dtype back into the arena: a thunk that computed in float64 and
        stored an upcast result would make the served forecast drift
        from the float32 eager forward."""
        previous = autodiff.set_default_dtype(np.float32)
        try:
            model = model_fn()
            history = _history(np.random.default_rng(0), n_dest=n_dest)
            model.eval()
            expected = np.array(model(history, 2)[0].data, copy=True)
            engine = InferenceEngine(model)
            outs = [engine.predict(history, 2) for _ in range(3)]
        finally:
            autodiff.set_default_dtype(previous)
        for name, weight in model.state_dict().items():
            assert weight.dtype == np.float32, name
        assert expected.dtype == np.float32
        for out in outs:
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, expected)
        stats = engine.stats()
        assert stats["captures"] == 1
        assert stats["replays"] == 2
        assert stats["eager_steps"] == 0

    def test_replay_rounds_wider_thunk_output_to_captured_dtype(self):
        """A thunk that computes in float64 under float32 must be rounded
        back to float32 on replay, as ``Tensor._make`` rounds it on the
        eager path; otherwise the replayed output, and every op after
        it, drifts off the eager bits."""
        third = np.float64(1.0) / 3.0

        def widen(x):
            # Test-local op: its thunk returns float64 whatever x holds.
            def run():
                return x.data.astype(np.float64) * third

            return Tensor._make(run, (x,), None)

        class _Widening(Module):
            def forward(self, histories, horizon):
                return ops.sigmoid(widen(Tensor(histories))), None, None

        previous = autodiff.set_default_dtype(np.float32)
        try:
            model = _Widening()
            history = _history(np.random.default_rng(0))
            expected = np.array(model(history, 2)[0].data, copy=True)
            engine = InferenceEngine(model)
            outs = [engine.predict(history, 2) for _ in range(3)]
        finally:
            autodiff.set_default_dtype(previous)
        assert expected.dtype == np.float32
        for out in outs:
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, expected)
        stats = engine.stats()
        assert stats["captures"] == 1
        assert stats["replays"] == 2


class TestTapeLifecycle:
    """Signature keys and LRU eviction of the inference tapes."""

    def test_new_capture_on_shape_change(self):
        model = _bf_model()
        engine = InferenceEngine(model)
        big = _history(np.random.default_rng(0), batch=4)
        small = _history(np.random.default_rng(1), batch=2)
        engine.predict(big, 2)
        engine.predict(small, 2)           # ragged batch -> second tape
        engine.predict(big, 2)             # first tape still live
        stats = engine.stats()
        assert stats["captures"] == 2
        assert stats["replays"] == 1
        assert stats["tapes"] == 2

    def test_horizon_change_is_a_new_signature(self):
        model = _bf_model()
        engine = InferenceEngine(model)
        history = _history(np.random.default_rng(0))
        for horizon in (2, 3):
            engine.predict(history, horizon)
        assert engine.stats()["captures"] == 2

    @pytest.mark.usefixtures("float64")
    def test_dtype_change_is_a_new_signature(self):
        """A default-dtype flip must recapture: the old tape's arena
        buffers hold the old dtype.  The float32 replay still equals the
        float32 eager forward bit for bit."""
        model = _bf_model()
        engine = InferenceEngine(model)
        history = _history(np.random.default_rng(0))
        previous = autodiff.set_default_dtype(np.float32)
        try:
            model.eval()
            expected = np.array(model(history, 2)[0].data, copy=True)
            for _ in range(2):
                out = engine.predict(history, 2)
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, expected)
        finally:
            autodiff.set_default_dtype(previous)
        engine.predict(history, 2)
        stats = engine.stats()
        assert stats["captures"] == 2
        assert stats["replays"] == 1

    def test_hot_tape_survives_eviction_pressure(self):
        """Eviction is least-recently-*used*, not first-in-first-out: a
        tape that keeps getting replay hits must survive captures of
        fresh signatures beyond ``max_tapes``."""
        model = _bf_model()
        engine = InferenceEngine(model, max_tapes=2)
        hot = _history(np.random.default_rng(0), batch=4)
        engine.predict(hot, 2)                              # capture hot
        for batch_size in (2, 3, 5):
            engine.predict(hot, 2)                          # keep it hot
            engine.predict(_history(np.random.default_rng(1),
                                    batch=batch_size), 2)   # churn
        # Under FIFO the hot tape would have been evicted by the first
        # churn capture; under LRU every hot step after the first is a
        # replay and never a re-capture.
        engine.predict(hot, 2)
        stats = engine.stats()
        assert stats["captures"] == 4           # hot once + 3 churn
        assert stats["replays"] == 4            # every other hot step
