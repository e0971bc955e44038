"""Lightweight per-op-kind profiler for the autodiff substrate.

:func:`profile` installs a process-wide hook (see
:mod:`repro.autodiff.tensor`) that times every op's forward thunk and
backward closure exactly — wall-clock around the call, nothing
attributed by inference — and aggregates by op kind (the enclosing
function name: ``matmul``, ``sigmoid``, ``fused_cnrnn_cell``, ...).
Training steps and served forwards run the same eager ops, so one
hook covers both; ``e2ebench/run.py --trace 1`` uses it to split a
training step into the paper's stages (docs/AUTODIFF.md has an example
table).

Overhead is two ``perf_counter`` calls plus one dict update per op
execution — fine for profiling runs, which is why it is opt-in rather
than always-on.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional

from .tensor import _op_label, _set_profiler


class OpProfiler:
    """Cumulative forward/backward time and call counts per op kind."""

    __slots__ = ("_forward", "_backward")

    def __init__(self):
        # label -> [calls, seconds]
        self._forward: Dict[str, list] = {}
        self._backward: Dict[str, list] = {}

    # -- hooks called by tensor._run_forward / Tensor.backward ---------
    def _record_forward(self, run, seconds: float) -> None:
        entry = self._forward.setdefault(_op_label(run), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def _record_backward(self, backward, seconds: float) -> None:
        entry = self._backward.setdefault(_op_label(backward), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    # -- reporting ------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-op-kind stats, sorted by total time (descending).

        Each value holds ``forward_calls``, ``forward_seconds``,
        ``backward_calls``, ``backward_seconds``.
        """
        merged: Dict[str, Dict[str, float]] = {}
        for label, (calls, seconds) in self._forward.items():
            entry = merged.setdefault(label, {
                "forward_calls": 0, "forward_seconds": 0.0,
                "backward_calls": 0, "backward_seconds": 0.0})
            entry["forward_calls"] += calls
            entry["forward_seconds"] += seconds
        for label, (calls, seconds) in self._backward.items():
            entry = merged.setdefault(label, {
                "forward_calls": 0, "forward_seconds": 0.0,
                "backward_calls": 0, "backward_seconds": 0.0})
            entry["backward_calls"] += calls
            entry["backward_seconds"] += seconds
        return dict(sorted(
            merged.items(),
            key=lambda kv: -(kv[1]["forward_seconds"]
                             + kv[1]["backward_seconds"])))

    def total_seconds(self) -> float:
        """Total time spent inside profiled op code (fwd + bwd)."""
        return (sum(s for _, s in self._forward.values())
                + sum(s for _, s in self._backward.values()))

    def format_table(self, limit: Optional[int] = None) -> str:
        """The docs/AUTODIFF.md-style per-op timing table."""
        rows = list(self.as_dict().items())
        if limit is not None:
            rows = rows[:limit]
        lines = [f"{'op':<24} {'fwd calls':>9} {'fwd ms':>9} "
                 f"{'bwd calls':>9} {'bwd ms':>9}"]
        for label, entry in rows:
            lines.append(
                f"{label:<24} {entry['forward_calls']:>9d} "
                f"{entry['forward_seconds'] * 1e3:>9.2f} "
                f"{entry['backward_calls']:>9d} "
                f"{entry['backward_seconds'] * 1e3:>9.2f}")
        return "\n".join(lines)


@contextlib.contextmanager
def profile(telemetry=None, event: str = "profile"):
    """Profile all autodiff ops executed inside the ``with`` block.

    Yields the :class:`OpProfiler`; read ``as_dict()`` /
    ``format_table()`` after (or inside) the block.  When ``telemetry``
    (a :mod:`repro.telemetry` sink) is given, one ``profile`` event with
    the aggregated stats is emitted as the block exits.  Nests safely —
    the previous profiler is restored on exit, and only the innermost
    one records.
    """
    profiler = OpProfiler()
    previous = _set_profiler(profiler)
    try:
        yield profiler
    finally:
        _set_profiler(previous)
        if telemetry is not None:
            from ..telemetry import emit
            emit(telemetry, event, ops=profiler.as_dict(),
                 total_seconds=profiler.total_seconds())
