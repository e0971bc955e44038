"""Capture/replay execution engine: run a recorded training step directly.

Every training step of a fixed (model, input-shape, horizon) signature
builds the *same* autodiff graph: the op sequence, all shapes, and the
parameter tensors never change between iterations — only the batch
contents and the weights' values do.  Eager execution nevertheless pays
the full Python graph-construction tax each step: a ``Tensor`` and two
closures per op, a topological sort per backward, and fresh output
arrays everywhere.

:class:`ReplayEngine` removes that tax.  On the first step for a given
signature it runs the model **eagerly under a tape**: every op appends
its ``(output Tensor, forward thunk)`` pair (see
:mod:`repro.autodiff.tensor`).  Subsequent steps with the same signature
*replay* the tape: new batch data is copied into the persistent input
buffers the capture step was built on, each recorded thunk is
re-executed in original order (rebinding, via its closure cells,
everything the matching backward needs), and the memoized backward pass
reuses the captured graph.  No Tensors, closures, or topo sorts are
rebuilt — the recorded step *is* the program, and the captured output
arrays form the reusable buffer arena.

Because the thunks re-run the exact arithmetic of the eager step — in
the same order, against the same RNG generators — replay is bit-for-bit
identical to eager execution (tests/test_replay.py), so checkpointing
and kill-and-resume determinism are unaffected.

Fallback rules (see docs/EXECUTION.md):

* anomaly mode (:func:`repro.autodiff.detect_anomaly`) needs per-op
  introspection at graph-build time → the engine declines and the caller
  runs eagerly;
* a capture whose tape does not account for every Tensor created during
  the step (an op bypassing the thunk protocol) disables the engine for
  the rest of the run — the eagerly-computed loss of the failed capture
  is still used, so the step is not wasted and no RNG draw happens twice;
* a signature change (new batch shape, horizon, dtype, training mode)
  simply captures a new tape; :meth:`ReplayEngine.invalidate`
  drops all tapes (the trainer calls it after checkpoint restore).
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .tensor import (Tensor, _active_profiler, _run_forward, _set_tape,
                     anomaly_enabled, get_default_dtype)

__all__ = ["CaptureMismatchWarning", "InferenceEngine", "ReplayEngine"]


class CaptureMismatchWarning(RuntimeWarning):
    """A capture step created Tensors its tape did not record."""


class _Tape:
    """One recorded training step: thunks, loss, and input buffers."""

    __slots__ = ("signature", "entries", "made", "loss",
                 "hist_buf", "truth_buf", "mask_buf")

    def __init__(self, signature: Tuple):
        self.signature = signature
        #: ``(output Tensor, forward thunk)`` per recorded op, in creation
        #: order — which is execution order, so replay repeats eager's
        #: RNG draws exactly.
        self.entries: List[Tuple[Tensor, Callable[[], np.ndarray]]] = []
        #: Tensors created via ``Tensor._make`` while recording; must
        #: equal ``len(entries)`` for the capture to be trusted.
        self.made = 0
        self.loss: Optional[Tensor] = None
        self.hist_buf: Optional[np.ndarray] = None
        self.truth_buf: Optional[np.ndarray] = None
        self.mask_buf: Optional[np.ndarray] = None

    def arena_nbytes(self) -> int:
        """Bytes held live by this tape's buffers and op outputs."""
        total = (self.hist_buf.nbytes + self.truth_buf.nbytes
                 + self.mask_buf.nbytes)
        for out, _ in self.entries:
            total += out.data.nbytes
        return total

    def rerun(self) -> Tensor:
        """Re-execute every recorded thunk in order; returns the root.

        Each output is coerced to its captured dtype: Tensor._make casts
        op results to the default dtype on the eager path, and a thunk
        whose internal math runs wider (e.g. a float64 structural matrix
        under float32 training) must round identically here or every
        downstream op drifts off the eager bit pattern.  np.asarray is a
        no-op when the dtype already matches.
        """
        if _active_profiler() is None:
            for out, run in self.entries:
                out.data = np.asarray(run(), dtype=out.data.dtype)
        else:
            for out, run in self.entries:
                out.data = np.asarray(_run_forward(run),
                                      dtype=out.data.dtype)
        return self.loss


class ReplayEngine:
    """Capture-once, replay-many executor for training steps.

    Parameters
    ----------
    model:
        The module to train; called as ``model(history, horizon)``.
    loss_fn:
        ``loss_fn(prediction, targets, masks, r, c) -> scalar Tensor``
        (the :class:`repro.core.Trainer` contract).
    max_tapes:
        Tapes kept per engine; the least-recently-used is evicted beyond
        this (a ragged final batch per epoch needs 2; more only helps
        when batch shapes genuinely alternate).

    Usage (what ``Trainer.fit`` does per batch)::

        loss = engine.forward(histories, targets, masks, horizon)
        if loss is None:          # engine declined -> eager step
            ...
        else:
            optimizer.zero_grad()
            engine.backward(loss)
    """

    def __init__(self, model, loss_fn, max_tapes: int = 4):
        self.model = model
        self.loss_fn = loss_fn
        self.max_tapes = int(max_tapes)
        self.enabled = True
        self.captures = 0
        self.replays = 0
        self.eager_steps = 0
        self._tapes: "OrderedDict[Tuple, _Tape]" = OrderedDict()
        self._active: Optional[_Tape] = None

    # ------------------------------------------------------------------
    def _signature(self, histories, targets, masks, horizon: int) -> Tuple:
        """Everything that must match for a recorded step to be reusable."""
        return (np.shape(histories), np.shape(targets), np.shape(masks),
                int(horizon), np.dtype(get_default_dtype()).name,
                bool(self.model.training))

    # ------------------------------------------------------------------
    def forward(self, histories, targets, masks,
                horizon: int) -> Optional[Tensor]:
        """Loss for one batch via capture or replay.

        Returns ``None`` when the engine declines (disabled after a
        failed capture, or anomaly mode active) — the caller must then
        run its own eager step.  Otherwise the returned loss is ready
        for :meth:`backward`.
        """
        if not self.enabled or anomaly_enabled():
            self.eager_steps += 1
            return None
        signature = self._signature(histories, targets, masks, horizon)
        tape = self._tapes.get(signature)
        if tape is None:
            return self._capture(signature, histories, targets, masks,
                                 horizon)
        self._tapes.move_to_end(signature)
        return self._replay(tape, histories, targets, masks)

    def backward(self, loss: Tensor) -> None:
        """Backward pass for a loss returned by :meth:`forward`.

        On a live tape the graph is retained (and its topological order
        memoized on the loss Tensor) so the next replay can reuse it; a
        capture-fallback loss backpropagates normally.
        """
        if self._active is not None:
            loss.backward(retain_graph=True)
        else:
            loss.backward()

    # ------------------------------------------------------------------
    def _capture(self, signature, histories, targets, masks,
                 horizon: int) -> Tensor:
        """Record one eager step into a fresh tape."""
        dtype = get_default_dtype()
        tape = _Tape(signature)
        # Persistent input buffers in the library dtype: the model and
        # loss wrap/alias default-dtype arrays without copying, so every
        # captured closure sees these exact buffers and a replay only
        # has to np.copyto new batch contents into them.
        tape.hist_buf = np.array(histories, dtype=dtype)
        tape.truth_buf = np.array(targets, dtype=dtype)
        tape.mask_buf = np.array(masks, dtype=dtype)
        previous = _set_tape(tape)
        try:
            prediction, r, c = self.model(tape.hist_buf, horizon)
            loss = self.loss_fn(prediction, tape.truth_buf, tape.mask_buf,
                                r, c)
        finally:
            _set_tape(previous)
        if tape.made != len(tape.entries) or loss.ndim != 0:
            # Some op created a Tensor without recording its thunk (or
            # the loss is not the scalar Trainer expects): replaying
            # this tape would silently reuse stale values.  The eager
            # pass we just ran is still a perfectly valid step — use its
            # loss (so no RNG draw is repeated) and stop capturing.
            self.enabled = False
            self._tapes.clear()
            self._active = None
            self.eager_steps += 1
            warnings.warn(
                f"capture incomplete: {tape.made} tensors created but "
                f"{len(tape.entries)} ops recorded"
                + ("" if loss.ndim == 0 else
                   f" (loss has shape {loss.shape}, expected scalar)")
                + "; an op is bypassing the run()-thunk protocol — "
                "falling back to eager execution for this run",
                CaptureMismatchWarning)
            return loss
        tape.loss = loss
        if len(self._tapes) >= self.max_tapes:
            self._tapes.popitem(last=False)     # evict least recently used
        self._tapes[signature] = tape
        self._active = tape
        self.captures += 1
        return loss

    def _replay(self, tape: _Tape, histories, targets, masks) -> Tensor:
        """Re-execute a recorded step on new batch contents."""
        np.copyto(tape.hist_buf, histories)
        np.copyto(tape.truth_buf, targets)
        np.copyto(tape.mask_buf, masks)
        self._active = tape
        self.replays += 1
        return tape.rerun()

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every recorded tape (e.g. after a checkpoint restore).

        Cheap insurance: thunks re-read parameter arrays and
        ``load_state_dict`` writes weights in place, so tapes actually
        survive restores — but a stale tape after *any* structural
        change would be silently wrong, so state-rewriting call sites
        invalidate anyway and pay one re-capture.
        """
        self._tapes.clear()
        self._active = None

    def arena_nbytes(self) -> int:
        """Total bytes held live across all recorded tapes' arenas."""
        return sum(t.arena_nbytes() for t in self._tapes.values())

    def stats(self) -> Dict[str, float]:
        """Counters for telemetry: how the engine actually executed."""
        return {"captures": self.captures, "replays": self.replays,
                "eager_steps": self.eager_steps,
                "tapes": len(self._tapes),
                "arena_nbytes": self.arena_nbytes(),
                "enabled": self.enabled}


class InferenceEngine:
    """Capture-once, replay-many executor for *inference* forwards.

    The serving hot path (``repro.serve``) runs the same model forward
    for every request of a given (batch shape, horizon, dtype)
    signature.  This engine applies the tape machinery to that path with
    the training-only weight dropped: tapes are captured with the model
    in eval mode and **no loss or backward schedule attached** — the
    arena holds only the prediction subgraph (no truth/mask buffers, no
    regularizer terms), and warm steps re-execute just the prediction
    thunks.

    Same fallback rules as :class:`ReplayEngine`: declines under
    anomaly mode, disables itself permanently on a capture mismatch
    (still returning the eagerly-computed prediction), and recaptures on
    signature change with LRU tape eviction.

    :meth:`predict` always returns a fresh ndarray copy — the arena
    buffers it reads from are overwritten by the next request.
    """

    def __init__(self, model, max_tapes: int = 4):
        self.model = model
        self.max_tapes = int(max_tapes)
        self.enabled = True
        self.captures = 0
        self.replays = 0
        self.eager_steps = 0
        self._tapes: "OrderedDict[Tuple, _Tape]" = OrderedDict()

    # ------------------------------------------------------------------
    def _signature(self, histories, horizon: int) -> Tuple:
        return (np.shape(histories), int(horizon),
                np.dtype(get_default_dtype()).name)

    def _forward(self, histories, horizon: int) -> Tensor:
        prediction, _, _ = self.model(histories, horizon)
        return prediction

    # ------------------------------------------------------------------
    def predict(self, histories, horizon: int) -> np.ndarray:
        """One inference forward: ``(B, h, N, N', K)`` prediction array.

        The model is forced into eval mode for the call (and restored
        afterwards) so a capture is never polluted by dropout draws.
        """
        was_training = bool(self.model.training)
        if was_training:
            self.model.eval()
        try:
            return self._predict(histories, horizon)
        finally:
            if was_training:
                self.model.train()

    def _predict(self, histories, horizon: int) -> np.ndarray:
        if not self.enabled or anomaly_enabled():
            self.eager_steps += 1
            return np.array(self._forward(histories, horizon).data,
                            copy=True)
        signature = self._signature(histories, horizon)
        tape = self._tapes.get(signature)
        if tape is None:
            return self._capture(signature, histories, horizon)
        self._tapes.move_to_end(signature)
        np.copyto(tape.hist_buf, histories)
        self.replays += 1
        return np.array(tape.rerun().data, copy=True)

    # ------------------------------------------------------------------
    def _capture(self, signature, histories, horizon: int) -> np.ndarray:
        dtype = get_default_dtype()
        tape = _Tape(signature)
        tape.hist_buf = np.array(histories, dtype=dtype)
        # No targets at inference time; keep the slots as empty arrays so
        # arena accounting stays uniform with training tapes.
        tape.truth_buf = np.empty(0, dtype=dtype)
        tape.mask_buf = np.empty(0, dtype=dtype)
        previous = _set_tape(tape)
        try:
            prediction = self._forward(tape.hist_buf, horizon)
        finally:
            _set_tape(previous)
        if tape.made != len(tape.entries):
            self.enabled = False
            self._tapes.clear()
            self.eager_steps += 1
            warnings.warn(
                f"capture incomplete: {tape.made} tensors created but "
                f"{len(tape.entries)} ops recorded; an op is bypassing "
                "the run()-thunk protocol — serving falls back to eager "
                "forwards", CaptureMismatchWarning)
            return np.array(prediction.data, copy=True)
        # The tape root is the prediction itself: there is no loss at
        # inference time.
        tape.loss = prediction
        if len(self._tapes) >= self.max_tapes:
            self._tapes.popitem(last=False)
        self._tapes[signature] = tape
        self.captures += 1
        return np.array(prediction.data, copy=True)

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every tape (call after hot-reloading the model weights).

        Thunks re-read parameter arrays in place, so tapes usually
        survive a ``load_state_dict`` — but serving correctness must not
        ride on that: a reloaded model pays one re-capture instead.
        """
        self._tapes.clear()

    def arena_nbytes(self) -> int:
        return sum(t.arena_nbytes() for t in self._tapes.values())

    def stats(self) -> Dict[str, float]:
        """Counters for telemetry: how inference actually executed."""
        return {"captures": self.captures, "replays": self.replays,
                "eager_steps": self.eager_steps,
                "tapes": len(self._tapes),
                "arena_nbytes": self.arena_nbytes(),
                "enabled": self.enabled}
