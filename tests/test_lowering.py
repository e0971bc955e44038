"""Tests for the tape-lowering pass (flat instruction plans).

The lowered engine's contract (docs/EXECUTION.md) is the replay
contract, one level further down: compiling a captured tape into a flat
instruction plan — preallocated arena buffers, fused elementwise chains,
a precomputed backward schedule — must stay *bit-for-bit* identical to
eager execution: same losses, same gradients, same RNG consumption, same
trained weights.  Everything here asserts exact equality, not allclose:
one ulp of drift means an instruction no longer performs eager's exact
arithmetic, which would silently break checkpoint determinism.
"""

import importlib.util
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.autodiff as autodiff
from repro.autodiff import (Adam, LoweringFallbackWarning, ReplayEngine,
                            ops)
from repro.autodiff import lowering
from repro.core import (AdvancedFramework, BasicFramework, TrainConfig,
                        Trainer, af_loss, bf_loss)

STEPS = 5


def _proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _batch(rng, batch=4, s=3, n=8, k=7, horizon=2):
    return (rng.uniform(size=(batch, s, n, n, k)),
            rng.uniform(size=(batch, horizon, n, n, k)),
            (rng.uniform(size=(batch, horizon, n, n)) < 0.4).astype(float))


def _bf_parts(dropout=0.2):
    model = BasicFramework(8, 8, 7, np.random.default_rng(7), rank=3,
                           encoder_dim=8, hidden_dim=12, dropout=dropout)
    return model, bf_loss


def _af_parts(dropout=0.2, n=8, k=7):
    rng = np.random.default_rng(11)
    w = _proximity(n, rng)
    model = AdvancedFramework(w, w, k, np.random.default_rng(7), rank=3,
                              rnn_hidden=8, rnn_order=2, dropout=dropout)

    def loss_fn(prediction, truth, mask, r, c):
        return af_loss(prediction, truth, mask, r, c, w, w)

    return model, loss_fn


def _train(parts_fn, engine_mode, steps=STEPS, n=8, k=7):
    """Losses, final grads, weights, model, and engine of a short run."""
    model, loss_fn = parts_fn()
    history, truth, mask = _batch(np.random.default_rng(0), n=n, k=k)
    if engine_mode == "eager":
        optimizer = Adam(model.parameters())
        engine = None
    else:
        optimizer = Adam(model.parameters(), flat=True)
        engine = ReplayEngine(model, loss_fn,
                              lower=(engine_mode == "lowered"))
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
    return losses, grads, weights, model, engine


class TestBitForBitParity:
    """Lowered must equal eager exactly — losses, grads, and weights."""

    @pytest.mark.parametrize("parts_fn", [_bf_parts, _af_parts],
                             ids=["bf", "af"])
    def test_five_steps_dropout_on(self, parts_fn):
        eager_losses, eager_grads, eager_weights, _, _ = _train(
            parts_fn, "eager")
        low_losses, low_grads, low_weights, _, engine = _train(
            parts_fn, "lowered")
        assert eager_losses == low_losses
        for g_eager, g_low in zip(eager_grads, low_grads):
            assert np.array_equal(g_eager, g_low)
        for name in eager_weights:
            assert np.array_equal(eager_weights[name],
                                  low_weights[name]), name
        # One capture, then every reuse ran the compiled plan — the
        # steady state really is the flat instruction loop, and nothing
        # fell back to thunk-walking replay.
        stats = engine.stats()
        assert stats["captures"] == 1
        assert stats["lowered_steps"] == STEPS - 1
        assert stats["replays"] == 0
        assert stats["plan_fallbacks"] == 0
        assert stats["plans"] == 1
        assert stats["plan_instructions"] > 0

    @pytest.mark.parametrize("parts_fn", [_bf_parts, _af_parts],
                             ids=["bf", "af"])
    def test_parity_holds_in_float32(self, parts_fn):
        autodiff.set_default_dtype(np.float32)
        try:
            eager = _train(parts_fn, "eager")
            lowered = _train(parts_fn, "lowered")
        finally:
            autodiff.set_default_dtype(np.float64)
        assert eager[0] == lowered[0]
        for name in eager[2]:
            assert np.array_equal(eager[2][name], lowered[2][name]), name

    def test_af_parity_on_a_wider_graph(self):
        """A 40-node, 3-bucket model: the toy graph's GEMMs are so small
        that a lowering mirror running the Chebyshev recursion in
        another GEMM layout (per slice instead of node-major) still
        rounds alike there; here it does not."""
        def parts():
            return _af_parts(n=40, k=3)

        eager = _train(parts, "eager", n=40, k=3)
        lowered = _train(parts, "lowered", n=40, k=3)
        assert eager[0] == lowered[0]
        for name in eager[2]:
            assert np.array_equal(eager[2][name], lowered[2][name]), name

    def test_rng_stream_matches_eager(self):
        """After N steps both engines leave dropout RNGs in the same
        state, so lowered runs stay on eager's exact random stream."""
        eager = _train(_bf_parts, "eager")[3]
        lowered = _train(_bf_parts, "lowered")[3]
        state_e = eager.drop_r._rng.bit_generator.state["state"]
        state_l = lowered.drop_r._rng.bit_generator.state["state"]
        assert state_e == state_l

    def test_fused_chains_present_and_identical_to_replay(self):
        """The plan actually exercises elementwise fusion, and a fused
        plan step equals an unfused replay step bitwise (fusion merges
        Python dispatch only, never arithmetic)."""
        replay = _train(_af_parts, "replay")
        lowered = _train(_af_parts, "lowered")
        assert lowered[4].plan_stats()["plan_fused_chains"] >= 1
        assert replay[0] == lowered[0]
        for name in replay[2]:
            assert np.array_equal(replay[2][name], lowered[2][name]), name

    def test_parity_with_fused_kernels_off(self):
        """A tape captured from the primitive-op reference path (mostly
        generic entries for the lowerer) still lowers or replays to
        eager's exact result."""
        with ops.use_fused(False):
            eager = _train(_bf_parts, "eager", steps=3)
            lowered = _train(_bf_parts, "lowered", steps=3)
        assert eager[0] == lowered[0]
        for name in eager[2]:
            assert np.array_equal(eager[2][name], lowered[2][name]), name


class TestPlanLifecycle:
    def test_shape_change_compiles_second_plan(self):
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn, lower=True)
        big = _batch(np.random.default_rng(0), batch=4)
        small = _batch(np.random.default_rng(1), batch=2)
        for batch in (big, big, small, small, big):
            loss = engine.forward(*batch, 2)
            engine.backward(loss)
        stats = engine.stats()
        assert stats["captures"] == 2
        assert stats["lowered_steps"] == 3
        assert stats["plans"] == 2          # one plan per signature

    def test_dtype_change_recaptures(self):
        """A default-dtype flip is a new signature: the old plan (whose
        arena buffers are the old dtype) must not be reused."""
        autodiff.set_default_dtype(np.float32)
        try:
            model, loss_fn = _bf_parts()
            engine = ReplayEngine(model, loss_fn, lower=True)
            history, truth, mask = _batch(np.random.default_rng(0))
            for _ in range(2):
                engine.backward(engine.forward(history, truth, mask, 2))
            autodiff.set_default_dtype(np.float64)
            loss = engine.forward(history, truth, mask, 2)
            engine.backward(loss)
        finally:
            autodiff.set_default_dtype(np.float64)
        stats = engine.stats()
        assert stats["captures"] == 2
        assert stats["lowered_steps"] == 1

    def test_invalidate_drops_plans_and_recompiles(self):
        """A checkpoint restore calls ``invalidate``: plans die with
        their tapes, and the next steps recapture and recompile."""
        model, loss_fn = _bf_parts()
        engine = ReplayEngine(model, loss_fn, lower=True)
        batch = _batch(np.random.default_rng(0))
        for _ in range(3):
            engine.backward(engine.forward(*batch, 2))
        assert engine.stats()["plans"] == 1
        engine.invalidate()
        assert engine.stats()["tapes"] == 0
        assert engine.stats()["plans"] == 0
        for _ in range(2):
            engine.backward(engine.forward(*batch, 2))
        stats = engine.stats()
        assert stats["captures"] == 2
        assert stats["plans"] == 1


class TestRecordedKernel:
    """The factorizer rule records a kernel's array operations once and
    replays them while its inputs are the same buffers."""

    def _stage(self, seed=0):
        from repro.autodiff import ops
        rng = np.random.default_rng(seed)
        n, batch, c, q, order = 6, 5, 3, 4, 3
        lap = rng.uniform(-1.0, 1.0, size=(n, n)) / n
        weight = rng.standard_normal((c * order, q))
        bias = rng.standard_normal(q)
        pool = ops._Pool(n, 2, None, np.full(n // 2, 0.5))

        def kernel(x, ws=None, call=ops._call):
            return ops._gcnn_stage_forward(lap, x, weight, bias, order,
                                           batch, pool, ws=ws, call=call)

        def signal():
            return ops._node_major(rng.standard_normal((batch, n, c)))

        return kernel, signal

    def test_replay_tracks_new_values_in_the_same_buffer(self):
        kernel, signal = self._stage()
        ws = {}
        recorded = lowering._Recorded(
            lambda x, call: kernel(x, ws=ws, call=call))
        x = signal()
        first = recorded(x)[0].copy()
        np.copyto(x, signal())              # new values, same buffer
        replayed = recorded(x)[0]
        assert len(recorded.ops) > 0
        assert np.array_equal(replayed, kernel(x)[0])
        assert not np.array_equal(replayed, first)

    def test_new_input_buffer_records_again(self):
        kernel, signal = self._stage()
        ws = {}
        recorded = lowering._Recorded(
            lambda x, call: kernel(x, ws=ws, call=call))
        recorded(signal())
        ops_before = recorded.ops
        other = signal()
        out = recorded(other)[0]
        assert recorded.ops is not ops_before
        assert np.array_equal(out, kernel(other)[0])


class TestFallback:
    def test_unknown_op_falls_back_to_replay(self, monkeypatch):
        """A tape with an op the lowerer cannot prove safe must warn
        once, keep plain replay, and stay bit-identical to eager."""
        eager_losses = _train(_bf_parts, "eager", steps=3)[0]
        monkeypatch.setattr(
            lowering, "GENERIC_SAFE",
            frozenset(lowering.GENERIC_SAFE - {"matmul"}))
        model, loss_fn = _bf_parts()
        history, truth, mask = _batch(np.random.default_rng(0))
        optimizer = Adam(model.parameters(), flat=True)
        engine = ReplayEngine(model, loss_fn, lower=True)
        losses = []
        for step in range(3):
            if step == 1:           # first reuse triggers compilation
                with pytest.warns(LoweringFallbackWarning):
                    loss = engine.forward(history, truth, mask, 2)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    loss = engine.forward(history, truth, mask, 2)
            optimizer.zero_grad()
            engine.backward(loss)
            optimizer.step()
            losses.append(float(loss.data))
        stats = engine.stats()
        assert stats["plan_fallbacks"] == 1
        assert stats["lowered_steps"] == 0
        assert stats["replays"] == 2        # replay kept working
        assert losses == eager_losses


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

    def test_lowered_fit_equals_eager_fit(self, windows, split):
        _, eager = self._fit(windows, split, 3, "eager")
        _, lowered = self._fit(windows, split, 3, "lowered")
        assert eager.train_losses == lowered.train_losses
        assert eager.val_losses == lowered.val_losses

    def test_checkpoint_resume_mid_run_with_lowered(self, tmp_path,
                                                    windows, split):
        """Kill after 2 of 4 epochs and resume under engine=lowered: the
        outcome must be bit-identical to the uninterrupted run (restore
        invalidates the tapes, so fresh plans are compiled)."""
        epochs = 4
        baseline, expected = self._fit(windows, split, epochs, "lowered")
        directory = tmp_path / "lowered_ckpt"
        self._fit(windows, split, 2, "lowered", checkpoint_dir=directory)
        resumed, result = self._fit(windows, split, epochs, "lowered",
                                    checkpoint_dir=directory, resume=True)
        assert result.train_losses == expected.train_losses
        assert result.val_losses == expected.val_losses
        state = resumed.model.state_dict()
        expected_state = baseline.model.state_dict()
        for name in expected_state:
            assert np.array_equal(state[name], expected_state[name]), name

    def test_lowering_telemetry_event(self, windows, split):
        events = []
        self._fit(windows, split, 2, "lowered",
                  telemetry=lambda event, fields: events.append(
                      (event, fields)))
        engine_events = [f for e, f in events if e == "engine"]
        assert len(engine_events) == 1
        assert engine_events[0]["mode"] == "lowered"
        assert engine_events[0]["lowered_steps"] >= 1
        lowering_events = [f for e, f in events if e == "lowering"]
        assert len(lowering_events) == 1
        stats = lowering_events[0]
        assert stats["plans"] >= 1
        assert stats["plan_instructions"] > 0
        assert stats["fallbacks"] == 0
        assert stats["arena_nbytes"] > 0


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE") == "smoke",
    reason="perf guard skipped in smoke mode")
class TestLoweredPerfGuard:
    def test_lowered_af_step_not_slower_than_replay(self):
        # Tolerant guard: the microbench records the real margin, but CI
        # boxes are noisy — only fail when the plan is meaningfully
        # *slower* than the thunk walk it replaces.
        spec = importlib.util.spec_from_file_location(
            "repro_microbench",
            Path(__file__).resolve().parents[1] / "benchmarks"
            / "microbench.py")
        microbench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(microbench)
        sizes = microbench.SIZES["smoke"]

        step_replay, _ = microbench._replay_step(
            microbench._af_parts(sizes))
        step_lowered, engine = microbench._lowered_step(
            microbench._af_parts(sizes))
        for _ in range(3):          # capture, compile, steady state
            step_replay()
            step_lowered()
        assert engine.stats()["lowered_steps"] >= 1
        replay_s = lowered_s = float("inf")
        for _ in range(5):          # interleaved best-of
            start = time.perf_counter()
            step_replay()
            replay_s = min(replay_s, time.perf_counter() - start)
            start = time.perf_counter()
            step_lowered()
            lowered_s = min(lowered_s, time.perf_counter() - start)
        assert lowered_s <= replay_s * 1.25, (
            f"lowered AF step {lowered_s * 1e3:.1f}ms slower than replay "
            f"{replay_s * 1e3:.1f}ms")


class TestForwardOnlyPlans:
    """Inference-only compilation (the ``repro.serve`` fast path): the
    forward schedule must be byte-for-byte the training plan's, and the
    backward schedule must simply not exist."""

    def _tape(self):
        model, loss_fn = _bf_parts(dropout=0.0)
        engine = ReplayEngine(model, loss_fn)
        history, truth, mask = _batch(np.random.default_rng(0))
        engine.forward(history, truth, mask, 2)
        tape = next(iter(engine._tapes.values()))
        return tape, history, truth, mask

    def test_forward_only_matches_full_plan_forward(self):
        tape, history, truth, mask = self._tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no fallback allowed
            full = lowering.lower_tape(tape)
            forward_only = lowering.lower_tape(tape, forward_only=True)
        expected = np.array(full.run_forward(history, truth, mask).data,
                            copy=True)
        got = forward_only.run_forward(history, truth, mask)
        assert np.array_equal(got.data, expected)

    def test_forward_only_plan_has_no_backward(self):
        tape, history, truth, mask = self._tape()
        plan = lowering.lower_tape(tape, forward_only=True)
        plan.run_forward(history, truth, mask)
        with pytest.raises(RuntimeError, match="forward_only"):
            plan.run_backward()

    def test_full_plan_still_runs_backward(self):
        tape, history, truth, mask = self._tape()
        plan = lowering.lower_tape(tape)
        plan.run_forward(history, truth, mask)
        plan.run_backward()                     # must not raise
