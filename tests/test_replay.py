"""Tests for the tape capture/replay execution engine.

The engine's contract (docs/EXECUTION.md) is that replay is *bit-for-bit*
identical to eager execution — same losses, same gradients, same RNG
consumption, same trained weights — while skipping graph reconstruction.
Everything here asserts exact equality, not allclose: one ulp of drift
means the recorded program no longer matches what eager does, which
would silently break checkpoint determinism.
"""

import numpy as np
import pytest

import repro.autodiff as autodiff
from repro.autodiff import (Adam, CaptureMismatchWarning, InferenceEngine,
                            ReplayEngine, Tensor, detect_anomaly, ops,
                            profile)
from repro.core import (AdvancedFramework, BasicFramework, TrainConfig,
                        Trainer, af_loss, bf_loss)

STEPS = 5


def _proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _batch(rng, batch=4, s=3, n=8, k=7, horizon=2, n_dest=None):
    n_dest = n if n_dest is None else n_dest
    return (rng.uniform(size=(batch, s, n, n_dest, k)),
            rng.uniform(size=(batch, horizon, n, n_dest, k)),
            (rng.uniform(size=(batch, horizon, n, n_dest)) < 0.4
             ).astype(float))


def _bf_parts(dropout=0.2):
    model = BasicFramework(8, 8, 7, np.random.default_rng(7), rank=3,
                           encoder_dim=8, hidden_dim=12, dropout=dropout)
    return model, bf_loss


def _af_parts(dropout=0.2, n=8, k=7, n_dest=None):
    rng = np.random.default_rng(11)
    w = _proximity(n, rng)
    w_dest = w if n_dest is None else _proximity(n_dest, rng)
    model = AdvancedFramework(w, w_dest, k, np.random.default_rng(7),
                              rank=3, rnn_hidden=8, rnn_order=2,
                              dropout=dropout)

    def loss_fn(prediction, truth, mask, r, c):
        return af_loss(prediction, truth, mask, r, c, w, w_dest)

    return model, loss_fn


def _train(parts_fn, engine_mode, steps=STEPS, n=8, k=7, n_dest=None):
    """Losses, final grads, and final weights of ``steps`` train steps."""
    model, loss_fn = parts_fn()
    history, truth, mask = _batch(np.random.default_rng(0), n=n, k=k,
                                  n_dest=n_dest)
    if engine_mode == "replay":
        optimizer = Adam(model.parameters(), flat=True)
        engine = ReplayEngine(model, loss_fn)
    else:
        optimizer = Adam(model.parameters())
        engine = None
    losses = []
    for _ in range(steps):
        if engine is not None:
            loss = engine.forward(history, truth, mask, 2)
            assert loss is not None
            optimizer.zero_grad()
            engine.backward(loss)
        else:
            prediction, r, c = model(history, 2)
            loss = loss_fn(prediction, truth, mask, r, c)
            optimizer.zero_grad()
            loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    grads = [p.grad.copy() for p in optimizer.parameters]
    weights = {k: v.copy() for k, v in model.state_dict().items()}
    return losses, grads, weights, engine


class TestBitForBitParity:
    """Replay must equal eager exactly — losses, grads, and weights."""

    @pytest.mark.parametrize("parts_fn, n, k, fused", [
        (_bf_parts, 8, 7, True),
        (_af_parts, 8, 7, True),
        # 40 nodes, 3 buckets: the toy graph's GEMMs are small enough to
        # round alike in any layout; these are not.
        (lambda: _af_parts(n=40, k=3), 40, 3, True),
        # A tape captured from the primitive-op oracles (tests/oracles.py).
        (_bf_parts, 8, 7, False),
    ], ids=["bf", "af", "af-40-nodes", "bf-unfused"])
    def test_five_steps_dropout_on(self, parts_fn, n, k, fused, request):
        if not fused:
            request.getfixturevalue("oracle_kernels")
        eager_losses, eager_grads, eager_weights, _ = _train(
            parts_fn, "eager", n=n, k=k)
        replay_losses, replay_grads, replay_weights, engine = _train(
            parts_fn, "replay", n=n, k=k)
        assert eager_losses == replay_losses
        for g_eager, g_replay in zip(eager_grads, replay_grads):
            assert np.array_equal(g_eager, g_replay)
        for name in eager_weights:
            assert np.array_equal(eager_weights[name],
                                  replay_weights[name]), name
        # One capture, then pure replays — the engine actually engaged.
        assert engine.stats()["captures"] == 1
        assert engine.stats()["replays"] == STEPS - 1
        assert engine.stats()["eager_steps"] == 0

    @pytest.mark.parametrize("parts_fn, n_dest", [
        (_bf_parts, None),
        (_af_parts, None),
        # 8 origins x 10 destinations: the two CNRNN sides differ in size.
        (lambda: _af_parts(n_dest=10), 10),
    ], ids=["bf", "af", "af-8x10"])
    def test_parity_holds_in_float32(self, parts_fn, n_dest):
        """Regression: under float32, a replayed thunk whose internal
        math runs in float64 (e.g. the AF Dirichlet Laplacian) must be
        rounded back to the captured dtype, and neither dropout masks
        nor the Dirichlet adjoint may upcast gradients — each of these
        bugs made float32 replay drift."""
        autodiff.set_default_dtype(np.float32)
        try:
            eager = _train(parts_fn, "eager", n_dest=n_dest)
            replay = _train(parts_fn, "replay", n_dest=n_dest)
        finally:
            autodiff.set_default_dtype(np.float64)
        for name, weight in eager[2].items():
            assert weight.dtype == np.float32, name
        for grad in eager[1] + replay[1]:
            assert grad.dtype == np.float32
        assert eager[0] == replay[0]
        for name in eager[2]:
            assert np.array_equal(eager[2][name], replay[2][name]), name

    def test_replay_consumes_rng_like_eager(self):
        """After N steps both engines leave dropout RNGs in the same
        state, so a mixed eager/replay run stays on the same stream."""
        model_e, loss_fn = _bf_parts()
        model_r, _ = _bf_parts()
        history, truth, mask = _batch(np.random.default_rng(0))
        engine = ReplayEngine(model_r, loss_fn)
        for _ in range(3):
            prediction, r, c = model_e(history, 2)
            loss_fn(prediction, truth, mask, r, c)
            engine.forward(history, truth, mask, 2)
        state_e = model_e.drop_r._rng.bit_generator.state["state"]
        state_r = model_r.drop_r._rng.bit_generator.state["state"]
        assert state_e == state_r


class TestGradcheckUnderReplay:
    def test_replayed_gradients_match_central_differences(self):
        model, loss_fn = _bf_parts(dropout=0.0)   # deterministic loss
        history, truth, mask = _batch(np.random.default_rng(3))
        engine = ReplayEngine(model, loss_fn)
        # Capture once, then take the analytic gradients from a *replay*.
        engine.forward(history, truth, mask, 2)
        loss = engine.forward(history, truth, mask, 2)
        for p in model.parameters():
            p.grad = None
        engine.backward(loss)
        assert engine.stats()["replays"] == 1

        def eager_loss():
            prediction, r, c = model(history, 2)
            return float(loss_fn(prediction, truth, mask, r, c).data)

        eps = 1e-6
        rng = np.random.default_rng(0)
        parameters = list(model.parameters())
        for p in (parameters[0], parameters[-1]):
            flat = p.data.reshape(-1)
            analytic = p.grad.reshape(-1)
            for idx in rng.choice(flat.size, size=3, replace=False):
                original = flat[idx]
                flat[idx] = original + eps
                upper = eager_loss()
                flat[idx] = original - eps
                lower = eager_loss()
                flat[idx] = original
                numeric = (upper - lower) / (2 * eps)
                assert analytic[idx] == pytest.approx(numeric, abs=1e-4,
                                                      rel=1e-4)


class TestTapeLifecycle:
    def test_new_capture_on_shape_change(self):
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn)
        big = _batch(np.random.default_rng(0), batch=4)
        small = _batch(np.random.default_rng(1), batch=2)
        engine.forward(*big, 2)
        engine.forward(*small, 2)          # ragged batch -> second tape
        engine.forward(*big, 2)            # first tape still live
        stats = engine.stats()
        assert stats["captures"] == 2
        assert stats["replays"] == 1
        assert stats["tapes"] == 2

    def test_horizon_change_is_a_new_signature(self):
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn)
        rng = np.random.default_rng(0)
        history = rng.uniform(size=(4, 3, 8, 8, 7))
        for horizon in (2, 3):
            truth = rng.uniform(size=(4, horizon, 8, 8, 7))
            mask = np.ones((4, horizon, 8, 8))
            engine.forward(history, truth, mask, horizon)
        assert engine.stats()["captures"] == 2

    def test_eval_mode_is_a_new_signature(self):
        """Dropout behaves differently in eval; a train-mode tape must
        not be replayed for an eval-mode step."""
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn)
        batch = _batch(np.random.default_rng(0))
        engine.forward(*batch, 2)
        model.eval()
        engine.forward(*batch, 2)
        model.train()
        assert engine.stats()["captures"] == 2

    def test_dtype_change_is_a_new_signature(self):
        """A default-dtype flip must recapture: the old tape's arena
        buffers hold the old dtype."""
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn)
        batch = _batch(np.random.default_rng(0))
        autodiff.set_default_dtype(np.float32)
        try:
            for _ in range(2):
                engine.backward(engine.forward(*batch, 2))
        finally:
            autodiff.set_default_dtype(np.float64)
        engine.backward(engine.forward(*batch, 2))
        stats = engine.stats()
        assert stats["captures"] == 2
        assert stats["replays"] == 1

    def test_invalidate_drops_all_tapes(self):
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn)
        batch = _batch(np.random.default_rng(0))
        engine.forward(*batch, 2)
        assert engine.arena_nbytes() > 0
        engine.invalidate()
        assert engine.stats()["tapes"] == 0
        assert engine.arena_nbytes() == 0
        engine.forward(*batch, 2)          # recaptures cleanly
        assert engine.stats()["captures"] == 2

    def test_oldest_tape_evicted_beyond_max(self):
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn, max_tapes=2)
        for batch_size in (2, 3, 4):
            engine.forward(*_batch(np.random.default_rng(0),
                                   batch=batch_size), 2)
        assert engine.stats()["tapes"] == 2
        # The batch=2 tape was evicted; using it again re-captures.
        engine.forward(*_batch(np.random.default_rng(0), batch=2), 2)
        assert engine.stats()["captures"] == 4

    def test_hot_tape_survives_eviction_pressure(self):
        """Eviction is least-recently-*used*, not first-in-first-out: a
        tape that keeps getting replay hits must survive captures of
        fresh signatures beyond ``max_tapes``."""
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn, max_tapes=2)
        hot = _batch(np.random.default_rng(0), batch=4)
        engine.forward(*hot, 2)                             # capture hot
        for batch_size in (2, 3, 5):
            engine.forward(*hot, 2)                         # keep it hot
            engine.forward(*_batch(np.random.default_rng(1),
                                   batch=batch_size), 2)    # churn
        # Under FIFO the hot tape would have been evicted by the first
        # churn capture; under LRU every hot step after the first is a
        # replay and never a re-capture.
        engine.forward(*hot, 2)
        stats = engine.stats()
        assert stats["captures"] == 4           # hot once + 3 churn
        assert stats["replays"] == 4            # every other hot step


class TestFallbacks:
    def test_declines_under_detect_anomaly(self):
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn)
        batch = _batch(np.random.default_rng(0))
        with detect_anomaly():
            assert engine.forward(*batch, 2) is None
        assert engine.stats()["eager_steps"] == 1
        # Outside anomaly mode the engine works again.
        assert engine.forward(*batch, 2) is not None

    def test_capture_mismatch_disables_engine_but_keeps_loss(self):
        model, _ = _bf_parts()

        def rogue_loss(prediction, truth, mask, r, c):
            loss = bf_loss(prediction, truth, mask, r, c)
            # A Tensor created behind the tape's back: _make is counted
            # but no thunk is recorded, so the tape cannot be trusted.
            Tensor._make(np.zeros(()), (), None)
            return loss

        engine = ReplayEngine(model, rogue_loss)
        batch = _batch(np.random.default_rng(0))
        with pytest.warns(CaptureMismatchWarning):
            loss = engine.forward(*batch, 2)
        # The eagerly-computed loss of the failed capture is still used
        # (no RNG draw is wasted or repeated) and backward works on it.
        assert loss is not None and loss.ndim == 0
        engine.backward(loss)
        assert any(p.grad is not None for p in model.parameters())
        assert not engine.enabled
        assert engine.forward(*batch, 2) is None    # permanently eager

    def test_non_scalar_loss_disables_engine(self):
        model, _ = _bf_parts()

        def vector_loss(prediction, truth, mask, r, c):
            return prediction.reshape(-1)

        engine = ReplayEngine(model, vector_loss)
        with pytest.warns(CaptureMismatchWarning):
            engine.forward(*_batch(np.random.default_rng(0)), 2)
        assert not engine.enabled


class TestTrainerIntegration:
    CFG = dict(batch_size=8, max_train_batches=4, patience=10, seed=3)

    def _fit(self, windows, split, epochs, engine, checkpoint_dir=None,
             resume=False, telemetry=None):
        model = BasicFramework(12, 12, 7, np.random.default_rng(7),
                               rank=3, encoder_dim=8, hidden_dim=12,
                               dropout=0.2)
        trainer = Trainer(model, bf_loss,
                          TrainConfig(epochs=epochs, engine=engine,
                                      **self.CFG))
        result = trainer.fit(windows, split, horizon=2,
                             checkpoint_dir=checkpoint_dir, resume=resume,
                             telemetry=telemetry)
        return trainer, result

    def test_replay_fit_equals_eager_fit(self, windows, split):
        _, eager = self._fit(windows, split, 3, "eager")
        trainer, replay = self._fit(windows, split, 3, "replay")
        assert eager.train_losses == replay.train_losses
        assert eager.val_losses == replay.val_losses

    def test_checkpoint_resume_mid_run_with_replay(self, tmp_path,
                                                   windows, split):
        """Kill after 2 of 4 epochs and resume under engine=replay: the
        outcome must be bit-identical to the uninterrupted replay run
        (which itself equals the eager run)."""
        epochs = 4
        baseline, expected = self._fit(windows, split, epochs, "replay")
        directory = tmp_path / "replay_ckpt"
        self._fit(windows, split, 2, "replay", checkpoint_dir=directory)
        resumed, result = self._fit(windows, split, epochs, "replay",
                                    checkpoint_dir=directory, resume=True)
        assert result.train_losses == expected.train_losses
        assert result.val_losses == expected.val_losses
        state = resumed.model.state_dict()
        expected_state = baseline.model.state_dict()
        for name in expected_state:
            assert np.array_equal(state[name], expected_state[name]), name

    def test_engine_telemetry_event(self, windows, split):
        events = []
        self._fit(windows, split, 2, "replay",
                  telemetry=lambda event, fields: events.append(
                      (event, fields)))
        engine_events = [f for e, f in events if e == "engine"]
        assert len(engine_events) == 1
        stats = engine_events[0]
        assert stats["mode"] == "replay"
        assert stats["captures"] >= 1
        assert stats["replays"] >= 1
        assert stats["eager_steps"] == 0

    def test_strict_contracts_force_eager(self, windows, split):
        from repro.contracts import contract_policy
        events = []
        with contract_policy("strict"):
            self._fit(windows, split, 2, "replay",
                      telemetry=lambda event, fields: events.append(
                          (event, fields)))
        stats = [f for e, f in events if e == "engine"][0]
        assert stats["captures"] == 0 and stats["replays"] == 0

    def test_invalid_engine_rejected(self):
        # A removed engine name must fail loudly, not fall back.
        for engine in ("warp", "lowered"):
            with pytest.raises(ValueError, match="engine"):
                TrainConfig(engine=engine)


class TestTopoMemoization:
    def test_topo_order_cached_across_retained_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (ops.sigmoid(x * 2.0) + x).sum()
        loss.backward(retain_graph=True)
        order = loss._topo_cache
        assert order is not None
        loss.backward(retain_graph=True)
        assert loss._topo_cache is order     # memoized, not rebuilt
        # Gradients still accumulate correctly on the second pass.
        assert np.allclose(x.grad, 2 * x.grad / 2)

    def test_topo_cache_cleared_by_releasing_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * 3.0).sum()
        loss.backward(retain_graph=True)
        assert loss._topo_cache is not None
        loss.backward()                      # releases the graph
        assert loss._topo_cache is None

    def test_stable_order_gives_identical_grads(self):
        def grads():
            x = Tensor(np.arange(4.0), requires_grad=True)
            y = ops.tanh(x) * x + ops.sigmoid(x)
            loss = y.sum()
            loss.backward(retain_graph=True)
            first = x.grad.copy()
            x.grad = None
            loss.backward(retain_graph=True)
            return first, x.grad

        first, second = grads()
        assert np.array_equal(first, second)


class TestFlatAdam:
    def _params(self, rng, flat_mode):
        from repro.autodiff.module import Parameter
        params = [Parameter(rng.normal(size=shape))
                  for shape in [(4, 3), (3,), (2, 2, 2)]]
        return params, Adam(params, lr=0.05, flat=flat_mode)

    def test_flat_matches_loop_bit_for_bit(self):
        rng = np.random.default_rng(0)
        params_loop, adam_loop = self._params(np.random.default_rng(5),
                                              False)
        params_flat, adam_flat = self._params(np.random.default_rng(5),
                                              True)
        for _ in range(7):
            for p_loop, p_flat in zip(params_loop, params_flat):
                grad = rng.normal(size=p_loop.data.shape)
                p_loop.grad = grad.copy()
                p_flat.grad = grad.copy()
            adam_loop.step()
            adam_flat.step()
        for p_loop, p_flat in zip(params_loop, params_flat):
            assert np.array_equal(p_loop.data, p_flat.data)

    def test_flat_falls_back_when_grad_missing(self):
        rng = np.random.default_rng(0)
        params, adam = self._params(np.random.default_rng(5), True)
        before = params[1].data.copy()
        params[0].grad = rng.normal(size=params[0].data.shape)
        params[2].grad = rng.normal(size=params[2].data.shape)
        adam.step()                          # loop path: one grad is None
        assert np.array_equal(params[1].data, before)
        assert not np.array_equal(
            params[0].data, params[0].data * 0 + before.sum())

    def test_flat_state_dict_round_trip(self):
        rng = np.random.default_rng(0)
        params_a, adam_a = self._params(np.random.default_rng(5), True)
        for _ in range(3):
            for p in params_a:
                p.grad = rng.normal(size=p.data.shape)
            adam_a.step()
        params_b, adam_b = self._params(np.random.default_rng(5), True)
        for p_a, p_b in zip(params_a, params_b):
            p_b.data[...] = p_a.data
        adam_b.load_state_dict(adam_a.state_dict())
        for p_a, p_b in zip(params_a, params_b):
            grad = rng.normal(size=p_a.data.shape)
            p_a.grad = grad.copy()
            p_b.grad = grad.copy()
        adam_a.step()
        adam_b.step()
        for p_a, p_b in zip(params_a, params_b):
            assert np.array_equal(p_a.data, p_b.data)

    def test_flat_rejects_mixed_dtypes(self):
        from repro.autodiff.module import Parameter
        params = [Parameter(np.zeros(2)), Parameter(np.zeros(2))]
        # Parameter construction casts to the default dtype, so mixed
        # dtypes only arise from direct .data surgery — still reject.
        params[0].data = np.zeros(2, dtype=np.float32)
        with pytest.raises(ValueError, match="single parameter dtype"):
            Adam(params, flat=True)


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
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn)
        batch = _batch(np.random.default_rng(0))
        engine.forward(*batch, 2)            # capture (unprofiled)
        with profile() as profiler:
            loss = engine.forward(*batch, 2)
            engine.backward(loss)
        stats = profiler.as_dict()
        assert engine.stats()["replays"] == 1
        assert stats["fused_gru_gates"]["forward_calls"] > 0
        assert stats["fused_gru_gates"]["backward_calls"] > 0

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
        activations and gradients under float32 training (and breaking
        flat-Adam bit parity with the loop)."""
        autodiff.set_default_dtype(np.float32)
        try:
            x = Tensor(np.ones((16, 16), dtype=np.float32),
                       requires_grad=True)
            out = ops.dropout(x, 0.5, np.random.default_rng(0))
            out.sum().backward()
            assert out.data.dtype == np.float32
            assert x.grad.dtype == np.float32
        finally:
            autodiff.set_default_dtype(np.float64)


class TestInferenceEngine:
    """Forward-only serving tapes (the repro.serve hot path)."""

    def _eager(self, model, history, horizon=2):
        model.eval()
        prediction, _, _ = model(history, horizon)
        return np.array(prediction.data, copy=True)

    def test_capture_then_replay_bit_identical(self):
        model, _ = _bf_parts()
        history, _, _ = _batch(np.random.default_rng(0))
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
        model, _ = _bf_parts()
        history, _, _ = _batch(np.random.default_rng(0))
        engine = InferenceEngine(model)
        first = engine.predict(history, 2)
        kept = first.copy()
        engine.predict(history * 0.5, 2)     # same signature, new data
        np.testing.assert_array_equal(first, kept)

    def test_eval_forced_during_predict_and_training_restored(self):
        """Dropout must never leak into a serving capture, and predict
        must not flip a model that a trainer still owns."""
        model, _ = _bf_parts(dropout=0.5)
        history, _, _ = _batch(np.random.default_rng(0))
        model.train()
        engine = InferenceEngine(model)
        first = engine.predict(history, 2)
        second = engine.predict(history, 2)
        assert model.training
        np.testing.assert_array_equal(first, second)

    def test_signature_change_captures_new_tape_with_lru_eviction(self):
        model, _ = _bf_parts()
        big, _, _ = _batch(np.random.default_rng(0), batch=4)
        small, _, _ = _batch(np.random.default_rng(1), batch=2)
        engine = InferenceEngine(model, max_tapes=1)
        engine.predict(big, 2)
        engine.predict(small, 2)             # evicts the big tape
        assert engine.stats()["tapes"] == 1
        engine.predict(big, 2)               # must recapture, not replay
        stats = engine.stats()
        assert stats["captures"] == 3
        assert stats["replays"] == 0

    def test_invalidate_forces_recapture(self):
        model, _ = _bf_parts()
        history, _, _ = _batch(np.random.default_rng(0))
        engine = InferenceEngine(model)
        engine.predict(history, 2)
        engine.predict(history, 2)
        engine.invalidate()
        assert engine.stats()["tapes"] == 0
        engine.predict(history, 2)
        assert engine.stats()["captures"] == 2

    def test_invalidate_tracks_reloaded_weights(self):
        """The registry hot-reload path: new weights + invalidate must
        serve the new model's prediction bit-identically."""
        model, _ = _bf_parts()
        history, _, _ = _batch(np.random.default_rng(0))
        engine = InferenceEngine(model)
        engine.predict(history, 2)
        for parameter in model.parameters():
            parameter.data = parameter.data + 0.01
        engine.invalidate()
        np.testing.assert_array_equal(engine.predict(history, 2),
                                      self._eager(model, history))

    def test_declines_under_detect_anomaly(self):
        model, _ = _bf_parts()
        history, _, _ = _batch(np.random.default_rng(0))
        engine = InferenceEngine(model)
        expected = self._eager(model, history)
        with detect_anomaly():
            out = engine.predict(history, 2)
        np.testing.assert_array_equal(out, expected)
        stats = engine.stats()
        assert stats["eager_steps"] == 1
        assert stats["captures"] == 0
