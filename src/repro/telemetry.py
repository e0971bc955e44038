"""Structured run telemetry: append-only JSONL event logs.

Long training runs and roster benchmarks need machine-readable progress
records — per-epoch losses, learning rates, gradient norms, wall times,
memory — that survive a crash and can be tailed while the run is live.
This module provides a tiny, dependency-free event log:

* :class:`TelemetryLogger` appends one JSON object per line to a file
  (or any text stream).  Every event carries ``ts`` (unix seconds),
  ``event`` (its type) and, when set, ``run_id``.
* :func:`emit` dispatches to "anything event-shaped": a logger, a plain
  ``callback(event, fields)`` function, or ``None`` (no-op) — so
  :class:`~repro.core.trainer.Trainer` and the experiment runner can
  accept an optional hook without caring what is behind it.
* :func:`read_events` loads a JSONL file back into dicts.

Every event this library emits, with its fields, is listed in one
table: ``docs/TELEMETRY.md``.  Consumers should ignore fields they do
not recognize.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

__all__ = ["TelemetryLogger", "emit", "peak_rss_mb", "read_events"]

#: Anything the trainer/runner accepts as a telemetry sink: a logger,
#: a ``callback(event, fields)`` callable, or None.
TelemetrySink = Union["TelemetryLogger", Callable[[str, dict], None], None]


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB (None if unknown)."""
    try:
        import resource
    except ImportError:                          # non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return float(peak) / divisor


def _jsonable(value):
    """Coerce numpy scalars/arrays so events always serialize."""
    if hasattr(value, "item") and getattr(value, "ndim", None) == 0:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


class TelemetryLogger:
    """Appends one JSON object per event to a JSONL file or stream.

    Opens the file in append mode so several phases of one run (or a
    resumed run) share a single log; every line is flushed immediately
    so a crash never loses emitted events and ``tail -f`` works.
    """

    def __init__(self, path_or_stream, run_id: Optional[str] = None):
        if hasattr(path_or_stream, "write"):
            self._stream = path_or_stream
            self._owns_stream = False
            self.path = None
        else:
            self.path = Path(path_or_stream)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "a", encoding="utf-8")
            self._owns_stream = True
        self.run_id = run_id

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> dict:
        """Append one event; returns the record written.

        Emitting after :meth:`close` is a silent no-op (the record is
        still built and returned): long-running services race in-flight
        requests against shutdown, and a late event must not turn into a
        write-to-closed-stream crash.  Every written line is flushed
        immediately, so a killed process loses at most the event it was
        writing.
        """
        record: Dict = {"ts": time.time(), "event": str(event)}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        record.update(fields)
        if getattr(self._stream, "closed", False):
            return record
        self._stream.write(
            json.dumps(record, default=_jsonable, sort_keys=False) + "\n")
        self._stream.flush()
        return record

    def close(self) -> None:
        if self._owns_stream and not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "TelemetryLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def emit(sink: TelemetrySink, event: str, **fields) -> None:
    """Send an event to whatever sink the caller supplied (or nothing).

    Accepts a :class:`TelemetryLogger` (or any object with an ``emit``
    method) or a plain ``callback(event, fields)`` function; ``None``
    is a silent no-op so call sites need no guards.
    """
    if sink is None:
        return
    if hasattr(sink, "emit"):
        sink.emit(event, **fields)
    else:
        sink(event, dict(fields))


def read_events(path, event: Optional[str] = None) -> List[dict]:
    """Load a JSONL telemetry file (optionally filtered by event type)."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if event is None or record.get("event") == event:
            records.append(record)
    return records
