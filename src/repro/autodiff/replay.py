"""Inference tapes: run a recorded model forward directly.

Every serving forward of a fixed (model, input-shape, horizon, dtype)
signature builds the *same* autodiff graph: the op sequence, all shapes,
and the parameter tensors never change between requests — only the
window contents do.  Eager execution nevertheless pays the full Python
graph-construction tax per request: a ``Tensor`` and two closures per
op, and fresh output arrays everywhere.

:class:`InferenceEngine` removes that tax.  On the first request for a
given signature it runs the model **eagerly under a tape**:
``Tensor._make``, which creates every op output, appends the op's
``(output Tensor, forward thunk)`` pair (see :mod:`repro.autodiff.tensor`).
Later requests with the same signature *replay* the tape: the new
window is copied into the persistent input buffer the capture was built
on and each recorded thunk is re-executed in original order.  No
Tensors or closures are rebuilt — the recorded forward *is* the program,
and the captured output arrays form the reusable buffer arena.

Because the thunks re-run the exact arithmetic of the eager forward in
the same order, a replay is bit-for-bit identical to eager execution
(tests/test_replay.py), which is what keeps a served forecast equal to
``forecast_latest``.

Fallback rules (see docs/EXECUTION.md):

* anomaly mode (:func:`repro.autodiff.detect_anomaly`) needs per-op
  introspection at graph-build time → the engine declines and runs the
  forward eagerly;
* a signature change (new batch shape, horizon, dtype) simply captures a
  new tape.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .tensor import (Tensor, _run_forward, _set_tape, anomaly_enabled,
                     get_default_dtype)

__all__ = ["InferenceEngine"]


class _Tape:
    """One recorded forward: thunks, root output, and input buffer."""

    __slots__ = ("signature", "entries", "root", "hist_buf")

    def __init__(self, signature: Tuple):
        self.signature = signature
        #: ``(output Tensor, forward thunk)`` per recorded op, in creation
        #: order — which is execution order.
        self.entries: List[Tuple[Tensor, Callable[[], np.ndarray]]] = []
        self.root: Optional[Tensor] = None
        self.hist_buf: Optional[np.ndarray] = None

    def arena_nbytes(self) -> int:
        """Bytes held live by this tape's buffer and op outputs."""
        total = self.hist_buf.nbytes
        for out, _ in self.entries:
            total += out.data.nbytes
        return total

    def rerun(self) -> Tensor:
        """Re-execute every recorded thunk in order; returns the root.

        Each output is coerced to its captured dtype: Tensor._make casts
        op results to the default dtype on the eager path, and a thunk
        whose internal math runs wider (e.g. a float64 structural matrix
        under float32 serving) must round identically here or every
        downstream op drifts off the eager bit pattern.  np.asarray is a
        no-op when the dtype already matches.
        """
        for out, run in self.entries:
            out.data = np.asarray(_run_forward(run), dtype=out.data.dtype)
        return self.root


class InferenceEngine:
    """Capture-once, replay-many executor for *inference* forwards.

    The serving hot path (``repro.serve``) runs the same model forward
    for every request of a given (batch shape, horizon, dtype)
    signature.  Tapes are captured with the model in eval mode and hold
    only the prediction subgraph; warm requests re-execute just those
    thunks.  The engine declines under anomaly mode and recaptures on
    signature change with LRU tape eviction (at most ``max_tapes``
    tapes).

    :meth:`predict` always returns a fresh ndarray copy — the arena
    buffers it reads from are overwritten by the next request.
    """

    def __init__(self, model, max_tapes: int = 4):
        self.model = model
        self.max_tapes = int(max_tapes)
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
        if anomaly_enabled():
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
        """Record one eager forward into a fresh tape."""
        tape = _Tape(signature)
        # A persistent input buffer in the library dtype: the model
        # wraps default-dtype arrays without copying, so every captured
        # closure sees this exact buffer and a replay only has to
        # np.copyto the next window into it.
        tape.hist_buf = np.array(histories, dtype=get_default_dtype())
        previous = _set_tape(tape.entries)
        try:
            prediction = self._forward(tape.hist_buf, horizon)
        finally:
            _set_tape(previous)
        tape.root = prediction
        if len(self._tapes) >= self.max_tapes:
            self._tapes.popitem(last=False)
        self._tapes[signature] = tape
        self.captures += 1
        return np.array(prediction.data, copy=True)

    # ------------------------------------------------------------------
    def arena_nbytes(self) -> int:
        return sum(t.arena_nbytes() for t in self._tapes.values())

    def stats(self) -> Dict[str, float]:
        """Counters for telemetry: how inference actually executed."""
        return {"captures": self.captures, "replays": self.replays,
                "eager_steps": self.eager_steps,
                "tapes": len(self._tapes),
                "arena_nbytes": self.arena_nbytes()}
