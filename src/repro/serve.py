"""Long-running forecast serving: registry, cache, workers.

The experiment harness answers "how good is the model?"; this module
answers production's question — *given everything observed up to now,
what are the next ``h`` OD tensors, for this city, right now?* — over
and over, from one process, for many deployments at once.  It stacks
three layers on top of the :mod:`repro.forecast` facade:

1. :class:`ModelRegistry` — one SHA-256-verified checkpoint per
   ``(city, scenario)`` :class:`ModelKey`, loaded lazily through
   :func:`repro.persistence.load_checkpoint`, LRU-evicted beyond
   ``max_models``, and hot-reloaded when the checkpoint file changes on
   disk.  A checkpoint that fails its checksum is *never* served: the
   stale instance is dropped, a ``model_error`` event is emitted, and
   the request degrades (see below).
2. :class:`ForecastService` — per-request contract validation, an LRU
   :class:`ResponseCache` keyed on (model key, window signature,
   horizon), one eval-mode model forward per cache miss — the same
   eager forward ``Trainer.predict`` runs, so a served answer equals
   :func:`repro.forecast.forecast_latest` by construction — and
   per-request JSONL telemetry.
3. :class:`ForecastWorkerPool` — fork-isolated serving processes (the
   fault-isolation pattern of ``experiments.runner``): a request that
   hangs or kills its worker is timed out, the worker respawned, the
   request retried, and — when retries are exhausted — answered from
   the parent's stale-response mirror, flagged ``degraded``.  Request
   windows and response histograms travel through a per-worker
   one-slot shared-memory ring (:mod:`repro.serve_shm`) so the pipe carries
   only tiny control frames, with automatic fallback to the pickled
   transport when a payload exceeds the slot; admission is
   deadline-aware — an overloaded worker queue or an unmeetable
   ``ForecastRequest.deadline`` sheds the request with
   :class:`~repro.serve_shm.ShedError` before any work is done.

Degradation ladder (per request, after admission): fresh cache hit ->
healthy shm forward -> pickled-pipe fallback -> retry on a respawned
worker (ring walk) -> stale cached answer (``degraded=True``,
``cache="stale"``) -> :class:`ModelUnavailableError`.  Shedding is the
fast-fail outside the ladder: it consumes no retry and serves no stale
answer.

See ``docs/SERVING.md`` for the operational guide and
``docs/TELEMETRY.md`` for the events this module emits.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import threading
import time
import warnings
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .autodiff.module import Module
from .contracts import ContractPolicy, ContractViolation, check_finite
from .core.recovery import publish
from .forecast import latest_history, tail_slice
from .histograms.tensor_builder import ODTensorSequence
from .persistence import load_checkpoint
from .serve_shm import (AdmissionController, DEFAULT_SLOT_BYTES, ShedError,
                        ShmRing, SlotOverflowError, TransportFallbackWarning,
                        shared_memory_available)
from .telemetry import TelemetrySink, emit

__all__ = [
    "ForecastRequest",
    "ForecastResponse",
    "ForecastService",
    "ForecastWorkerPool",
    "LoadedModel",
    "ModelKey",
    "ModelRegistry",
    "ModelUnavailableError",
    "ResponseCache",
    "ServeConfig",
    "ShedError",
    "TransportFallbackWarning",
    "window_signature",
]

#: Data-plane transports for :class:`ForecastWorkerPool` ("shm" ships
#: array bytes through a per-worker one-slot shared-memory ring and falls
#: back per request when a payload does not fit; "pickle" forces the
#: original pickled-pipe transport).
SERVE_TRANSPORTS = ("shm", "pickle")


@dataclass(frozen=True)
class ModelKey:
    """One deployment: a city plus a scenario label (e.g. ``weekday``)."""

    city: str
    scenario: str = "default"

    def __str__(self) -> str:
        return f"{self.city}/{self.scenario}"


@dataclass(frozen=True)
class ServeConfig:
    """Operational knobs for the registry and the service.  The worker
    pool takes its own (timeout, retries, transport) as arguments."""

    #: Loaded models kept in memory; least-recently-served is evicted.
    max_models: int = 8
    #: Response-cache entries; 0 disables the cache.
    cache_size: int = 256
    #: Degrade to the last known answer instead of failing outright.
    stale_ok: bool = True

    def __post_init__(self):
        if self.max_models < 1:
            raise ValueError("max_models must be >= 1")


class ModelUnavailableError(RuntimeError):
    """No healthy model instance can answer for this key right now."""

    def __init__(self, key: ModelKey, reason: str):
        super().__init__(f"model {key}: {reason}")
        self.key = key
        self.reason = reason


def window_signature(history: np.ndarray) -> str:
    """Content hash of one model input window (cache identity).

    Covers dtype, shape, and raw bytes, so two requests share a cache
    entry iff the model would see bit-identical input.
    """
    arr = np.ascontiguousarray(history)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass
class LoadedModel:
    """One live model instance: module + file fingerprint."""

    key: ModelKey
    model: Module
    epoch: int
    fingerprint: Tuple[int, int, int]


class ModelRegistry:
    """Lazily loads and hot-reloads checksummed checkpoints per key.

    ``register`` records where a deployment's checkpoint lives and how
    to rebuild its (untrained) architecture; nothing is read until the
    first ``get``.  Every ``get`` re-stats the file: a changed
    fingerprint (mtime/size/inode — atomic ``save_checkpoint`` replaces
    the inode) triggers a reload, and the previous instance is dropped
    *before* the reload is attempted so a corrupt rewrite can never
    leave a stale model serving under a fresh file.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 telemetry: TelemetrySink = None):
        self.config = config or ServeConfig()
        self.telemetry = telemetry
        self._registered: Dict[ModelKey, tuple] = {}
        self._loaded: "OrderedDict[ModelKey, LoadedModel]" = OrderedDict()
        self.loads = 0
        self.reloads = 0
        self.evictions = 0
        self.errors = 0

    def register(self, key: ModelKey, checkpoint_path,
                 builder: Callable[[], Module]) -> None:
        """Announce a deployment.  Re-registering a key drops any loaded
        instance (the next request reloads from the new path)."""
        self._registered[key] = (Path(checkpoint_path), builder)
        self._loaded.pop(key, None)

    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(path: Path) -> Tuple[int, int, int]:
        stat = path.stat()
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def get(self, key: ModelKey) -> LoadedModel:
        """The live instance for ``key`` (loading/reloading as needed).

        Raises :class:`ModelUnavailableError` when the key is unknown or
        its checkpoint is missing/corrupt — a failed checksum is
        reported (``model_error``) and *not* served.
        """
        entry = self._registered.get(key)
        if entry is None:
            raise ModelUnavailableError(key, "not registered")
        path, builder = entry
        try:
            fingerprint = self._fingerprint(path)
        except OSError as exc:
            self._loaded.pop(key, None)
            self.errors += 1
            emit(self.telemetry, "model_error", key=str(key),
                 path=str(path), error=f"{type(exc).__name__}: {exc}")
            raise ModelUnavailableError(
                key, f"checkpoint unreadable: {exc}") from exc
        loaded = self._loaded.get(key)
        if loaded is not None and loaded.fingerprint == fingerprint:
            self._loaded.move_to_end(key)
            return loaded
        reload = loaded is not None
        # Drop first: between here and a successful load there is no
        # instance, so a corrupt rewrite can never serve stale weights.
        self._loaded.pop(key, None)
        loaded = self._load(key, path, builder, fingerprint, reload)
        self._loaded[key] = loaded
        while len(self._loaded) > self.config.max_models:
            evicted, _ = self._loaded.popitem(last=False)
            self.evictions += 1
            emit(self.telemetry, "model_evict", key=str(evicted))
        return loaded

    def _load(self, key: ModelKey, path: Path, builder, fingerprint,
              reload: bool) -> LoadedModel:
        start = time.perf_counter()
        try:
            model = builder()
            checkpoint = load_checkpoint(path)    # SHA-256 verified
            state = checkpoint.best_state or checkpoint.model_state
            model.load_state_dict(state)
        except Exception as exc:   # CheckpointCorruptError, bad state, ...
            self.errors += 1
            emit(self.telemetry, "model_error", key=str(key),
                 path=str(path), error=f"{type(exc).__name__}: {exc}")
            raise ModelUnavailableError(
                key, f"checkpoint rejected: {exc}") from exc
        model.eval()
        self.loads += 1
        self.reloads += int(reload)
        emit(self.telemetry, "model_reload" if reload else "model_load",
             key=str(key), path=str(path), epoch=checkpoint.epoch,
             seconds=time.perf_counter() - start)
        return LoadedModel(key=key, model=model, epoch=checkpoint.epoch,
                           fingerprint=fingerprint)

    def stats(self) -> Dict[str, int]:
        return {"registered": len(self._registered),
                "loaded": len(self._loaded), "loads": self.loads,
                "reloads": self.reloads, "evictions": self.evictions,
                "errors": self.errors}


# ----------------------------------------------------------------------
# response cache
# ----------------------------------------------------------------------
class ResponseCache:
    """LRU of served predictions, keyed (model key, signature, horizon).

    Stores and returns *copies*: a cached answer must stay bit-identical
    to the forward that produced it even if a caller mutates what it was
    handed.  Entries never expire: the key pins the exact input window,
    so an entry can only ever hold the answer a fresh forward would give
    (a hot reload drops the model's entries, see
    :meth:`invalidate_model`), and the LRU bound caps memory.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[np.ndarray]:
        prediction = self._entries.get(key)
        if prediction is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return prediction.copy()

    def put(self, key: tuple, prediction: np.ndarray) -> None:
        if self.max_entries <= 0:
            return
        self._entries[key] = np.array(prediction, copy=True)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate_model(self, model_key: ModelKey) -> int:
        """Drop every entry served by ``model_key`` (hot-reload)."""
        stale = [k for k in self._entries if k[0] == model_key]
        for k in stale:
            del self._entries[k]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses}


# ----------------------------------------------------------------------
# requests / responses
# ----------------------------------------------------------------------
@dataclass
class ForecastRequest:
    """One "forecast now" query against a registered deployment."""

    key: ModelKey
    sequence: ODTensorSequence
    s: int
    horizon: int
    #: Absolute ``time.monotonic()`` seconds by which the caller needs
    #: the answer.  None = no deadline.  The worker pool sheds the
    #: request (:class:`~repro.serve_shm.ShedError`) when the deadline
    #: has passed or cannot be met given the queue depth and the
    #: observed per-forward latency EWMA; workers refuse to start a
    #: forward whose deadline already expired in flight.
    deadline: Optional[float] = None

    def tail(self) -> "ForecastRequest":
        """Same query over only the last ``s`` intervals — what a
        parent ships to a worker process (O(s) payload)."""
        return replace(self, sequence=tail_slice(self.sequence, self.s))


@dataclass
class ForecastResponse:
    """The answer plus how it was produced (for telemetry and SLAs)."""

    key: ModelKey
    horizon: int
    prediction: Optional[np.ndarray]
    cache: str = "miss"            # "hit" | "miss" | "stale"
    seconds: float = 0.0
    degraded: bool = False
    error: Optional[str] = None
    #: The request also loaded its model, so ``seconds`` is not a
    #: steady-state forward time.
    cold: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class ForecastService:
    """Registry + cache + model forward behind one ``forecast`` call.

    Each request runs on its own: validate the window, fetch the model,
    answer from the cache or run one forward, check it finite, cache
    it.  Thread-safe: concurrent callers are serialized around the
    registry, the cache and the models.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 registry: Optional[ModelRegistry] = None,
                 telemetry: TelemetrySink = None,
                 policy: Optional[ContractPolicy] = None):
        self.config = config or ServeConfig()
        self.telemetry = telemetry
        self.policy = policy
        self.registry = registry or ModelRegistry(self.config, telemetry)
        self.cache = ResponseCache(self.config.cache_size)
        self.requests = 0
        self._versions: Dict[ModelKey, tuple] = {}
        self._last: Dict[Tuple[ModelKey, int], np.ndarray] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def register(self, key: ModelKey, checkpoint_path,
                 builder: Callable[[], Module]) -> None:
        self.registry.register(key, checkpoint_path, builder)

    def forecast(self, key: ModelKey, sequence: ODTensorSequence, s: int,
                 horizon: int) -> np.ndarray:
        """``(horizon, N, N', K)`` forecast; raises on failure."""
        response = self.forecast_one(
            ForecastRequest(key, sequence, s, horizon))
        if not response.ok:
            raise ModelUnavailableError(key, response.error)
        return response.prediction

    def forecast_one(self, request: ForecastRequest) -> ForecastResponse:
        """One request -> one response (errors reported, not raised)."""
        with self._lock:
            self.requests += 1
            response = self._serve(request, time.perf_counter())
            emit(self.telemetry, "serve_request", key=str(request.key),
                 s=request.s, horizon=request.horizon,
                 cache=response.cache, seconds=response.seconds,
                 degraded=response.degraded, error=response.error)
        return response

    def _serve(self, request: ForecastRequest,
               start: float) -> ForecastResponse:
        key, horizon = request.key, request.horizon
        try:
            history = latest_history(request.sequence, request.s,
                                     self.policy)[None]
        except (ValueError, ContractViolation) as exc:
            return ForecastResponse(
                key, horizon, None, seconds=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}")
        signature = window_signature(history)
        loads = self.registry.loads
        try:
            loaded = self.registry.get(key)
        except ModelUnavailableError as exc:
            return self._degrade(request, signature, start, str(exc))
        # A hot-reload changed the weights: answers cached from the
        # previous instance must never be served again.
        if self._versions.get(key) != loaded.fingerprint:
            self.cache.invalidate_model(key)
            self._versions[key] = loaded.fingerprint
        cached = self.cache.get((key, signature, horizon))
        if cached is not None:
            return ForecastResponse(key, horizon, cached, cache="hit",
                                    seconds=time.perf_counter() - start)
        try:
            loaded.model.eval()
            prediction, _, _ = loaded.model(history, horizon)
            prediction = publish(prediction.data[0])
            check_finite(prediction, "prediction", "serve", self.policy)
        except Exception as exc:    # noqa: BLE001 - degrade, don't die
            return self._degrade(request, signature, start,
                                 f"{type(exc).__name__}: {exc}")
        self.cache.put((key, signature, horizon), prediction)
        self._last[(key, horizon)] = prediction
        return ForecastResponse(key, horizon, prediction, cache="miss",
                                seconds=time.perf_counter() - start,
                                cold=self.registry.loads > loads)

    def _degrade(self, request: ForecastRequest, signature: str,
                 start: float, error: str) -> ForecastResponse:
        """Last rung before failing: a stale answer, clearly flagged."""
        if self.config.stale_ok:
            stale = self.cache.get(
                (request.key, signature, request.horizon))
            if stale is None:
                last = self._last.get((request.key, request.horizon))
                stale = None if last is None else last.copy()
            if stale is not None:
                return ForecastResponse(
                    request.key, request.horizon, stale, cache="stale",
                    seconds=time.perf_counter() - start, degraded=True)
        return ForecastResponse(
            request.key, request.horizon, None,
            seconds=time.perf_counter() - start, error=error)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {"requests": self.requests, "cache": self.cache.stats(),
                "registry": self.registry.stats()}

    def close(self) -> None:
        """Nothing to release (no threads, no processes); kept so an
        in-process service and a :class:`ForecastWorkerPool` shut down
        alike."""


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------
def _serve_request(service, request: ForecastRequest) -> ForecastResponse:
    """Serve one request inside a worker, deadline-checked, never raising."""
    if request.deadline is not None \
            and time.monotonic() >= request.deadline:
        return ForecastResponse(
            request.key, request.horizon, None,
            error="DeadlineExceeded: expired before the forward started")
    try:
        return service.forecast_one(request)
    except Exception as exc:  # noqa: BLE001 - workers must not die
        return ForecastResponse(
            request.key, request.horizon, None,
            error=f"{type(exc).__name__}: {exc}")


def _serve_shm_frame(service, ring, request_id, meta) -> ForecastResponse:
    """Rebuild a request from the worker's ring (zero-copy) and serve it.

    Function-local on purpose: every view into the segment dies when
    this frame returns, so the ring can close cleanly at shutdown.
    """
    key, s, horizon, spec, interval_minutes, deadline = meta
    arrays, _ = ring.read(request_id, copy=False)
    tensors, mask, counts = arrays
    sequence = ODTensorSequence(
        tensors=tensors, mask=mask, counts=counts, spec=spec,
        interval_minutes=interval_minutes, _validated=True)
    return _serve_request(service, ForecastRequest(
        key, sequence, s, horizon, deadline=deadline))


def _worker_loop(conn, service_factory, ring=None) -> None:
    """Body of one serving worker: recv control frame, serve, reply.

    Frames are ``("shm", id, meta)`` — array bytes live in the
    shared-memory ring, the pipe carries only this control tuple — or
    ``("pickle", id, request)``, the legacy transport.  Responses go
    back through the ring when the histogram fits, else as a pickled
    frame.  The ``finally`` closes and best-effort-unlinks the
    ring so even a worker that outlives its parent leaves nothing in
    ``/dev/shm``.
    """
    service = service_factory()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            kind, request_id = message[0], message[1]
            if kind == "shm":
                meta = message[2]
                try:
                    response = _serve_shm_frame(service, ring, request_id,
                                                meta)
                except Exception as exc:  # noqa: BLE001 - bad frame
                    response = ForecastResponse(
                        meta[0], meta[2], None,
                        error=f"{type(exc).__name__}: {exc}")
                frame = None
                if response.ok and response.prediction is not None:
                    try:     # response histogram written once, in place
                        ring.write([response.prediction], request_id)
                        frame = ("shm", request_id,
                                 replace(response, prediction=None))
                    except (SlotOverflowError, ValueError):
                        frame = None     # doesn't fit: pickle it instead
                if frame is None:
                    frame = ("pickle", request_id, response)
            else:
                request = message[2]
                response = _serve_request(service, request)
                frame = ("pickle", request_id, response)
            try:
                conn.send(frame)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()
        if ring is not None:
            ring.close()
            ring.unlink()    # no-op if the parent already unlinked


class ForecastWorkerPool:
    """Process-isolated serving: crashes and hangs cannot take the
    parent down.

    Reuses the fork-pool fault-isolation pattern of
    ``experiments.runner``: each worker is a forked process owning a
    full :class:`ForecastService` (built by ``service_factory``).
    Requests for one model key always land on ``crc32(key) %
    n_workers``, so each worker's registry and response cache stay hot
    for the keys it owns instead of every worker cold-loading every
    model; retries step to the next slot so a wedged owner cannot
    blackhole its keys.  Only the last ``s`` intervals of
    the sequence are shipped (O(s) payload).

    **Data plane** (``transport="shm"``, the default): each worker owns
    a one-slot :class:`~repro.serve_shm.ShmRing` — request windows are
    written once into it by the parent, response histograms once by
    the worker, and the pipe carries only tiny control frames.  When
    shared memory is unavailable, or a payload exceeds ``slot_bytes``,
    the request falls back to the pickled pipe (bit-identical answer,
    one-shot :class:`~repro.serve_shm.TransportFallbackWarning`,
    ``transport_fallbacks`` counter, ``transport_fallback`` event).

    **Backpressure**: admission is checked against the key's owner
    worker before any dispatch — a queue already ``max_inflight`` deep,
    or a ``ForecastRequest.deadline`` that has passed or cannot be met
    given ``(queue depth + 1) x`` the observed per-forward latency
    EWMA, sheds the request with :class:`~repro.serve_shm.ShedError`
    (fast-fail: no worker touched, no retry consumed, no stale answer).

    A request that exceeds ``request_timeout`` or whose worker dies
    mid-flight gets the worker terminated, its shared-memory segment
    unlinked, a replacement spawned (fresh ring), and the request
    retried; when retries are exhausted the parent's stale-response
    mirror answers, flagged ``degraded`` — the ladder's last rung
    before :class:`ModelUnavailableError`.
    """

    def __init__(self, service_factory: Callable[[], ForecastService],
                 n_workers: int = 2,
                 request_timeout: Optional[float] = 30.0,
                 retries: int = 1, stale_ok: bool = True,
                 transport: str = "shm",
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 max_inflight: int = 8,
                 telemetry: TelemetrySink = None):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ForecastWorkerPool needs the fork start method")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if transport not in SERVE_TRANSPORTS:
            raise ValueError(
                f"transport must be one of {SERVE_TRANSPORTS}, got "
                f"{transport!r}")
        self._factory = service_factory
        self._ctx = multiprocessing.get_context("fork")
        self.request_timeout = request_timeout
        self.retries = int(retries)
        self.stale_ok = bool(stale_ok)
        self.slot_bytes = int(slot_bytes)
        self.telemetry = telemetry
        self.deaths = 0
        self.timeouts = 0
        self.degraded = 0
        self.sheds = 0
        self.transport_fallbacks = 0
        self._fallback_warned = False
        self.transport = transport
        if transport == "shm" and not shared_memory_available():
            self._note_fallback(-1, "multiprocessing.shared_memory "
                                    "unavailable on this platform")
            self.transport = "pickle"
        self._admission = AdmissionController(n_workers,
                                              max_inflight=max_inflight)
        self._last: Dict[Tuple[ModelKey, int], np.ndarray] = {}
        self._request_ids = itertools.count(1)
        self._workers: List[Optional[tuple]] = [None] * n_workers
        self._locks = [threading.Lock() for _ in range(n_workers)]
        self._closed = False
        for slot in range(n_workers):
            self._spawn(slot)

    # ------------------------------------------------------------------
    def _note_fallback(self, slot: int, reason: str,
                       direction: str = "request") -> None:
        """Count (and once, warn about) a pickled-transport fallback."""
        self.transport_fallbacks += 1
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                f"shm transport fell back to the pickled pipe: {reason} "
                f"(further fallbacks counted silently)",
                TransportFallbackWarning, stacklevel=3)
        emit(self.telemetry, "transport_fallback", slot=slot,
             reason=reason, direction=direction)

    def _spawn(self, slot: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        ring = None
        if self.transport == "shm":
            try:
                # One slot: _roundtrip holds the worker's lock from the
                # request write to the response read.
                ring = ShmRing(slot_bytes=self.slot_bytes)
            except (OSError, RuntimeError) as exc:
                self._note_fallback(
                    slot, f"ring creation failed: {exc}")
                self.transport = "pickle"
        proc = self._ctx.Process(
            target=_worker_loop, args=(child_conn, self._factory, ring),
            name=f"repro-serve-worker-{slot}", daemon=True)
        proc.start()
        child_conn.close()
        self._workers[slot] = (proc, parent_conn, ring)
        emit(self.telemetry, "worker_spawn", slot=slot, pid=proc.pid,
             transport="shm" if ring is not None else "pickle")

    def _kill(self, slot: int, reason: str) -> None:
        proc, conn, ring = self._workers[slot]
        self.deaths += 1
        emit(self.telemetry, "worker_death", slot=slot, pid=proc.pid,
             reason=reason)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():     # wedged (or stopped): escalate to SIGKILL
            proc.kill()
            proc.join(timeout=5.0)
        conn.close()
        # Unlink the dead worker's segment *before* forking the
        # replacement: a SIGKILLed worker never runs its cleanup, and
        # leaking one /dev/shm segment per respawn would eventually
        # exhaust shared memory.
        if ring is not None:
            ring.close()
            ring.unlink()
        self._spawn(slot)

    # ------------------------------------------------------------------
    def _slot_for(self, key: ModelKey, attempt: int) -> int:
        """Worker slot for ``key`` on the given retry attempt.

        crc32 (not ``hash``) so the mapping is stable across processes
        and runs — per-interpreter string-hash randomisation would
        reshuffle key ownership on every restart and defeat the warm
        caches affinity exists to protect.  Retries walk to the
        neighbouring slots."""
        n = len(self._workers)
        return (zlib.crc32(str(key).encode()) + attempt) % n

    def _shed(self, request: ForecastRequest, slot: int,
              exc: ShedError) -> None:
        """Record a shed (telemetry + counter) and re-raise it."""
        self.sheds += 1
        stats = self._admission.stats()
        emit(self.telemetry, "serve_shed", key=str(request.key),
             slot=slot, reason=exc.reason,
             queue_depth=self._admission.queue_depth(slot),
             max_inflight=self._admission.max_inflight,
             ewma_ms=stats["ewma_ms"])
        raise exc

    def forecast(self, request: ForecastRequest) -> ForecastResponse:
        """Serve one request through the pool (degrading, not raising —
        except :class:`~repro.serve_shm.ShedError`, the deliberate
        fast-fail when admission control refuses the request)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        request = request.tail()    # bound the data-plane payload to O(s)
        owner = self._slot_for(request.key, 0)
        try:
            depth, new_high = self._admission.admit(
                owner, request.key, request.deadline)
        except ShedError as exc:
            self._shed(request, owner, exc)
        if new_high:
            emit(self.telemetry, "serve_queue_depth", slot=owner,
                 depth=depth, max_inflight=self._admission.max_inflight)
        forward_seconds = None
        try:
            last_error = "no workers available"
            for attempt in range(1 + self.retries):
                if attempt and request.deadline is not None \
                        and time.monotonic() >= request.deadline:
                    self._admission.note_deadline_shed()
                    self._shed(request, owner, ShedError(
                        request.key, "deadline passed before retry "
                                     f"{attempt}"))
                slot = owner if attempt == 0 \
                    else self._slot_for(request.key, attempt)
                start = time.monotonic()
                response, error = self._roundtrip(slot, request)
                if response is None:
                    last_error = error
                    continue
                if response.ok and not response.degraded:
                    # A cold forward (it loaded the model) is not
                    # what later requests will wait for: folding it in
                    # could shed every short-deadline request, and a
                    # shed request never forwards to correct it.
                    if response.cache == "miss" and not response.cold:
                        forward_seconds = time.monotonic() - start
                    self._last[(request.key, request.horizon)] = \
                        response.prediction
                if response.ok:
                    return response
                last_error = response.error
            return self._degrade(request, last_error)
        finally:
            self._admission.done(owner, forward_seconds)

    def _roundtrip(self, slot: int, request: ForecastRequest
                   ) -> Tuple[Optional[ForecastResponse], Optional[str]]:
        """One send + await on one worker: ``(response, error)``.

        Serialized per worker slot so concurrent callers queue instead
        of interleaving frames on one pipe — the queue admission
        control bounds.  Array bytes go through the worker's ring when
        they fit; the pickled pipe is the per-request fallback.
        """
        with self._locks[slot]:
            proc, conn, ring = self._workers[slot]
            if not proc.is_alive():
                self._kill(slot, "found dead")
                proc, conn, ring = self._workers[slot]
            request_id = next(self._request_ids)
            sent_shm = ring is not None
            if sent_shm:
                sequence = request.sequence
                try:
                    ring.write(
                        [sequence.tensors, sequence.mask, sequence.counts],
                        request_id, request.deadline)
                except (SlotOverflowError, ValueError) as exc:
                    sent_shm = False
                    self._note_fallback(
                        slot, f"{type(exc).__name__}: {exc}")
            try:
                if sent_shm:
                    meta = (request.key, request.s, request.horizon,
                            request.sequence.spec,
                            request.sequence.interval_minutes,
                            request.deadline)
                    conn.send(("shm", request_id, meta))
                else:
                    conn.send(("pickle", request_id, request))
            except (BrokenPipeError, OSError) as exc:
                self._kill(slot, "send failed")
                return None, f"worker send failed: {exc}"
            return self._await(slot, request_id, ring, sent_shm)

    def _await(self, slot: int, request_id: int, ring, sent_shm: bool
               ) -> Tuple[Optional[ForecastResponse], Optional[str]]:
        """Wait for one worker's answer; ``(None, why)`` = timeout/death."""
        proc, conn, _ = self._workers[slot]
        deadline = None if self.request_timeout is None \
            else time.monotonic() + self.request_timeout
        timeout_error = (f"no answer within {self.request_timeout}s "
                         f"or worker died")
        while True:
            remaining = 1.0 if deadline is None \
                else deadline - time.monotonic()
            if remaining <= 0:
                self.timeouts += 1
                self._kill(slot, "request timeout")
                return None, timeout_error
            if not conn.poll(min(remaining, 0.05)):
                if not proc.is_alive() and not conn.poll(0):
                    self._kill(slot, "died mid-request")
                    return None, timeout_error
                continue
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                self._kill(slot, "pipe closed mid-request")
                return None, timeout_error
            kind, got_id = frame[0], frame[1]
            if got_id != request_id:
                # A stale answer from a request whose caller already
                # gave up (post-timeout drain): drop it, keep waiting.
                continue
            if kind == "shm":
                control = frame[2]
                try:
                    arrays, _ = ring.read(got_id, copy=True)
                except Exception as exc:  # noqa: BLE001 - corrupt slot
                    return replace(
                        control, prediction=None,
                        error=f"shm response unreadable: {exc}"), None
                return replace(control, prediction=arrays[0]), None
            response = frame[2]
            if sent_shm and response.ok \
                    and response.prediction is not None:
                # The request went out through the ring but the answer
                # came back pickled: the histogram outgrew the slot.
                self._note_fallback(slot, "response exceeded slot_bytes",
                                    direction="response")
            return response, None

    def _degrade(self, request: ForecastRequest,
                 error: str) -> ForecastResponse:
        if self.stale_ok:
            stale = self._last.get((request.key, request.horizon))
            if stale is not None:
                self.degraded += 1
                emit(self.telemetry, "serve_degraded",
                     key=str(request.key), horizon=request.horizon,
                     error=error)
                return ForecastResponse(
                    request.key, request.horizon, stale.copy(),
                    cache="stale", degraded=True)
        return ForecastResponse(request.key, request.horizon, None,
                                error=error)

    # ------------------------------------------------------------------
    def segment_names(self) -> List[str]:
        """Names of the live shared-memory segments (for leak checks)."""
        return [ring.name for entry in self._workers
                if entry is not None and entry[2] is not None
                for ring in (entry[2],)]

    def stats(self) -> Dict[str, object]:
        alive = sum(1 for w in self._workers
                    if w is not None and w[0].is_alive())
        return {"workers": len(self._workers), "alive": alive,
                "deaths": self.deaths, "timeouts": self.timeouts,
                "degraded": self.degraded, "sheds": self.sheds,
                "transport": self.transport,
                "transport_fallbacks": self.transport_fallbacks,
                "queue": self._admission.stats()}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for entry in self._workers:
            if entry is None:
                continue
            proc, conn, ring = entry
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for entry in self._workers:
            if entry is None:
                continue
            proc, conn, ring = entry
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            conn.close()
            # The parent owns every segment: unlink here so a pool
            # shutdown (even one that had to terminate workers) leaves
            # nothing behind in /dev/shm.
            if ring is not None:
                ring.close()
                ring.unlink()

    def __enter__(self) -> "ForecastWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
