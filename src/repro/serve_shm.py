"""Zero-copy shared-memory transport for the forecast worker pool.

``ForecastWorkerPool`` originally shipped every request window and every
response histogram as a pickled object over a ``multiprocessing.Pipe``.
At metro scale one response is an ``(h, N, N', K)`` float array — tens
of megabytes — so pickling + pipe chunking dominated the request path
that ``BENCH_SERVE.json`` measures.  This module replaces the *data*
plane while the Pipe keeps carrying only tiny control frames:

* :class:`ShmRing` — one ``multiprocessing.shared_memory.SharedMemory``
  segment per worker, holding one slot.  The parent writes the request
  arrays (tensors/mask/counts) once into it; the worker maps the same
  pages, reads them zero-copy, runs the forward, and writes the
  response histogram once into the same slot.  The slot starts with a
  small fixed header carrying dtype/shape/request-id/deadline, so
  either side can validate what it is looking at.
* :class:`AdmissionController` — deadline-aware backpressure in the
  parent: a bounded per-worker in-flight count plus an EWMA of observed
  per-forward latency.  A request is shed with :class:`ShedError`
  (fast-fail, no worker touched, no retry consumed) when the queue is
  full, its deadline has already passed, or the deadline cannot be met
  given ``(queue depth + 1) * EWMA``.

When ``shared_memory`` is unavailable, or a payload exceeds the
slot, the pool falls back to the pickled-pipe transport for that
request (one-shot warning, per-pool counter, ``transport_fallback``
telemetry event) — responses are bit-identical either way, the
transports differ only in how the bytes travel.

Slot layout (see docs/SERVING.md for the sizing guide)::

    +--------------------------------------------------------------+
    | header (512 B): magic | n_arrays | request_id | deadline     |
    |   then per array (max 4): dtype | ndim | shape[6] | nbytes   |
    +--------------------------------------------------------------+
    | payload 0  (64-byte aligned)                                 |
    | payload 1  (64-byte aligned)                                 |
    | ...                                                          |
    +--------------------------------------------------------------+

Cleanup contract: the parent owns every segment and unlinks it on
``close()`` *and* before respawning a killed worker; the worker body
closes (and best-effort unlinks) its segment in a ``finally`` so a
parent that dies first still leaves nothing in ``/dev/shm``.
"""

from __future__ import annotations

import math
import secrets
import struct
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:                                            # pragma: no cover - import guard
    from multiprocessing import shared_memory as _shared_memory
except ImportError:                             # pragma: no cover
    _shared_memory = None

__all__ = [
    "AdmissionController",
    "DEFAULT_SLOT_BYTES",
    "HEADER_BYTES",
    "ShedError",
    "ShmRing",
    "SlotOverflowError",
    "TransportFallbackWarning",
    "leaked_segments",
    "shared_memory_available",
    "slot_bytes_for",
]

#: Default per-slot capacity (header included).  Sized so a large-city
#: request window or response histogram fits without fallback; metro
#: deployments should size slots explicitly via :func:`slot_bytes_for`.
DEFAULT_SLOT_BYTES = 16 * 1024 * 1024

#: Fixed header size at the start of every slot.
HEADER_BYTES = 512

#: Payloads inside a slot start on this alignment.
_ALIGN = 64

_MAGIC = 0x4F44534D                 # "ODSM" — OD shared memory
_MAX_ARRAYS = 4
_MAX_NDIM = 6
_HEAD = struct.Struct("<IIQd")      # magic, n_arrays, request_id, deadline
_DESC = struct.Struct("<16sII" + "Q" * _MAX_NDIM + "Q")

assert _HEAD.size + _MAX_ARRAYS * _DESC.size <= HEADER_BYTES


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can back a ring."""
    return _shared_memory is not None


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def slot_bytes_for(shapes: Sequence[Tuple[int, ...]],
                   dtypes: Optional[Sequence] = None) -> int:
    """Slot size (bytes) that fits the given arrays plus the header.

    ``shapes`` are the array shapes one direction of a round trip ships
    — for a forecast request ``[(s, N, N', K), (s, N, N'), (s, N, N')]``
    (tensors, mask, counts), for the response ``[(h, N, N', K)]`` — and
    ``dtypes`` the matching dtypes (default float64).  Size slots to the
    *max* of both directions, since the response reuses the request's
    slot.
    """
    if dtypes is None:
        dtypes = [np.float64] * len(shapes)
    offset = HEADER_BYTES
    for shape, dtype in zip(shapes, dtypes):
        offset = _aligned(offset)
        offset += int(math.prod(shape)) * np.dtype(dtype).itemsize
    return offset


class SlotOverflowError(ValueError):
    """The payload does not fit in one slot (caller should fall back)."""


class TransportFallbackWarning(RuntimeWarning):
    """The shm transport degraded to the pickled pipe (one-shot).

    Emitted at most once per pool: either shared memory is unavailable
    on this platform, or a payload exceeded the slot.  Requests
    still succeed — bit-identically — they just pay serialization
    again; resize ``slot_bytes`` (see :func:`slot_bytes_for`) to get
    the fast path back.
    """


class ShedError(RuntimeError):
    """Request refused at admission: overload or unmeetable deadline.

    Fast-fail by design — no worker is touched, no retry is consumed,
    and no stale answer is served: the caller asked for a deadline (or
    the operator bounded the queue) precisely so that an overloaded
    pool answers "no" in microseconds instead of "late" in seconds.
    """

    def __init__(self, key, reason: str):
        super().__init__(f"request shed for {key}: {reason}")
        self.key = key
        self.reason = reason


# ----------------------------------------------------------------------
# the slot ring
# ----------------------------------------------------------------------
class ShmRing:
    """A one-slot shared-memory segment for one worker's round trips.

    The parent creates the segment and writes each request into it; the
    forked worker inherits the mapping, reads the request and writes its
    response back into the same slot.  The pool holds the worker's lock
    for the whole round trip, so one slot is all a worker ever uses.
    Array bytes are written exactly once per direction; :meth:`read`
    with ``copy=False`` returns views straight into the segment (callers
    must drop them before :meth:`close`).
    """

    def __init__(self, slot_bytes: int = DEFAULT_SLOT_BYTES,
                 name: Optional[str] = None):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        if slot_bytes <= HEADER_BYTES:
            raise ValueError(
                f"slot_bytes must exceed the {HEADER_BYTES}-byte header")
        self.slot_bytes = int(slot_bytes)
        self.name = name or f"repro-serve-{secrets.token_hex(6)}"
        self._shm = _shared_memory.SharedMemory(
            name=self.name, create=True, size=self.slot_bytes)
        self._closed = False

    # ------------------------------------------------------------------
    def write(self, arrays: Sequence[np.ndarray], request_id: int,
              deadline: Optional[float] = None) -> int:
        """Write header + arrays into the slot; returns payload bytes.

        Raises :class:`SlotOverflowError` when the arrays do not fit —
        the caller falls back to the pickled transport for this request.
        """
        if len(arrays) > _MAX_ARRAYS:
            raise ValueError(f"at most {_MAX_ARRAYS} arrays per slot")
        arrays = [np.ascontiguousarray(a) for a in arrays]
        offsets: List[int] = []
        offset = HEADER_BYTES
        for array in arrays:
            if array.ndim > _MAX_NDIM:
                raise ValueError(f"at most {_MAX_NDIM} dims per array")
            offset = _aligned(offset)
            offsets.append(offset)
            offset += array.nbytes
        if offset > self.slot_bytes:
            raise SlotOverflowError(
                f"payload {offset} B exceeds slot_bytes="
                f"{self.slot_bytes} B")
        buf = self._shm.buf
        _HEAD.pack_into(buf, 0, _MAGIC, len(arrays), request_id,
                        math.nan if deadline is None else float(deadline))
        desc = _HEAD.size
        for array, payload_offset in zip(arrays, offsets):
            shape = list(array.shape) + [0] * (_MAX_NDIM - array.ndim)
            _DESC.pack_into(buf, desc, str(array.dtype).encode(),
                            array.ndim, 0, *shape, array.nbytes)
            desc += _DESC.size
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=buf,
                              offset=payload_offset)
            np.copyto(view, array)
            del view                  # release the exported buffer pointer
        return offset - HEADER_BYTES

    def read(self, request_id: Optional[int] = None, copy: bool = True
             ) -> Tuple[List[np.ndarray], Optional[float]]:
        """Arrays + deadline from the slot (validating the header).

        ``copy=False`` returns zero-copy views into the segment: the
        worker's fast path, at the price that every view must be dropped
        before the segment can close.
        """
        buf = self._shm.buf
        magic, n_arrays, got_id, deadline = _HEAD.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ValueError("slot holds no frame (bad magic)")
        if request_id is not None and got_id != request_id:
            raise ValueError(
                f"slot holds request {got_id}, expected {request_id}")
        arrays: List[np.ndarray] = []
        desc = _HEAD.size
        offset = HEADER_BYTES
        for _ in range(n_arrays):
            fields = _DESC.unpack_from(buf, desc)
            desc += _DESC.size
            dtype = np.dtype(fields[0].rstrip(b"\0").decode())
            ndim = fields[1]
            shape = tuple(fields[3:3 + ndim])
            nbytes = fields[3 + _MAX_NDIM]
            offset = _aligned(offset)
            view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            arrays.append(view.copy() if copy else view)
            if copy:
                del view
            offset += nbytes
        return arrays, (None if math.isnan(deadline) else deadline)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the segment (views must already be dropped)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:     # a straggler view exists; the OS reclaims
            pass                # the mapping when the process exits

    def unlink(self) -> None:
        """Remove the segment name; safe to call from both sides."""
        try:
            self._shm.unlink()
        except FileNotFoundError:   # the other side already unlinked
            pass

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass


def leaked_segments(names: Sequence[str]) -> List[str]:
    """Which of these segment names still exist in the OS namespace.

    Used by the benchmark gate and the respawn regression test to
    assert zero leaked ``/dev/shm`` entries after kill/respawn cycles
    and after ``close()``.
    """
    if _shared_memory is None:
        return []
    leaked = []
    for name in names:
        try:
            segment = _shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            continue
        segment.close()
        leaked.append(name)
    return leaked


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class AdmissionController:
    """Bounded in-flight queues + a per-forward latency EWMA.

    One instance per pool, one in-flight counter per worker slot.  A
    request is admitted against its key's *owner* slot (the affinity
    base), so backpressure reflects the queue the request would
    actually wait in.  :meth:`admit` raises :class:`ShedError` when

    * the owner's queue already holds ``max_inflight`` requests, or
    * the request's deadline has already passed, or
    * ``now + (depth + 1) * EWMA > deadline`` — the forward cannot
      finish in time even if nothing else goes wrong.

    The EWMA tracks steady-state *forward* latency only (the caller
    excludes cache hits and cold forwards that loaded a model): it is
    the honest per-request cost of an overloaded worker, which is what
    deadline feasibility must be judged against.
    """

    def __init__(self, n_slots: int, max_inflight: int = 8,
                 alpha: float = 0.2):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.max_inflight = int(max_inflight)
        self.alpha = float(alpha)
        self.ewma_seconds: Optional[float] = None
        self.shed_full = 0
        self.shed_deadline = 0
        self._inflight = [0] * n_slots
        self._high_water = [0] * n_slots
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def admit(self, slot: int, key, deadline: Optional[float] = None,
              now: Optional[float] = None) -> Tuple[int, bool]:
        """Admit one request on ``slot`` or raise :class:`ShedError`.

        Returns ``(queue depth after admission, new high-water mark?)``.
        """
        if now is None:
            now = time.monotonic()
        with self._lock:
            depth = self._inflight[slot]
            if depth >= self.max_inflight:
                self.shed_full += 1
                raise ShedError(
                    key, f"worker {slot} queue full "
                         f"({depth}/{self.max_inflight} in flight)")
            if deadline is not None:
                if now >= deadline:
                    self.shed_deadline += 1
                    raise ShedError(
                        key, f"deadline passed "
                             f"{(now - deadline) * 1e3:.2f}ms ago")
                if self.ewma_seconds is not None:
                    projected = now + (depth + 1) * self.ewma_seconds
                    if projected > deadline:
                        self.shed_deadline += 1
                        raise ShedError(
                            key,
                            f"deadline in {(deadline - now) * 1e3:.2f}ms "
                            f"unmeetable: {depth + 1} request(s) x EWMA "
                            f"{self.ewma_seconds * 1e3:.2f}ms")
            self._inflight[slot] = depth + 1
            new_high = self._inflight[slot] > self._high_water[slot]
            if new_high:
                self._high_water[slot] = self._inflight[slot]
            return self._inflight[slot], new_high

    def note_deadline_shed(self) -> None:
        """Count a deadline shed decided outside :meth:`admit` (e.g. a
        deadline that lapsed between retries)."""
        with self._lock:
            self.shed_deadline += 1

    def done(self, slot: int,
             forward_seconds: Optional[float] = None) -> None:
        """Release one in-flight token; fold a forward latency sample
        into the EWMA when one is supplied."""
        with self._lock:
            self._inflight[slot] = max(0, self._inflight[slot] - 1)
            if forward_seconds is not None:
                if self.ewma_seconds is None:
                    self.ewma_seconds = float(forward_seconds)
                else:
                    self.ewma_seconds = (
                        self.alpha * float(forward_seconds)
                        + (1.0 - self.alpha) * self.ewma_seconds)

    def queue_depth(self, slot: int) -> int:
        with self._lock:
            return self._inflight[slot]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "inflight": list(self._inflight),
                "high_water": list(self._high_water),
                "ewma_ms": (None if self.ewma_seconds is None
                            else self.ewma_seconds * 1e3),
                "shed_full": self.shed_full,
                "shed_deadline": self.shed_deadline,
            }
