"""Spans, outside-in instrumentation and stage buckets for the traced run.

Nothing here edits the program: every measurement is taken around a
call into a module's public function (or a class method patched for the
length of one traced process), and the training step's op-level split
comes from the existing :func:`repro.autodiff.profile` hook.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span on the same thread (or -1) and ``request``
the id of the served request that caused it (or -1).  Layer totals count
only the outermost span of each name, so a contract check that calls
another contract check is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

# Op labels (the enclosing op function of each forward thunk / backward
# closure, as :class:`repro.autodiff.profiler.OpProfiler` reports them)
# grouped into the paper's stages.  Unfused reference twins sit with
# their fused kernels so a toggle cannot move time between stages.
STAGE_OPS = {
    "core.factorize": (
        "fused_twin_gcnn_stage", "fused_gcnn_stage", "fused_twin_cheb_conv",
        "cheb_conv", "cheb_propagate", "_pool_axis",
        "_blocked_run", "_blocked_backward", "_exact_run", "_exact_backward"),
    "core.forecast": (
        "fused_twin_cnrnn_cell", "fused_cnrnn_cell", "fused_gru_gates",
        "fused_twin_latent_head", "fused_latent_head"),
    "core.recover": ("fused_softmax_recovery",),
    "core.loss": ("fused_masked_frobenius", "dirichlet_energy"),
}

# Every other op the autodiff substrate defines: shape plumbing,
# elementwise arithmetic and the unfused layers.  A label in neither
# table is reported by name and counted in ``autodiff.unmapped_ops``.
GLUE_OPS = (
    "__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__",
    "__getitem__", "matmul", "reshape", "transpose", "expand_dims",
    "squeeze", "sum", "max", "stack", "concat", "pad_axis", "take_axis",
    "where", "maximum", "clip_min", "abs_", "sqrt", "exp", "log", "relu",
    "sigmoid", "tanh", "softmax", "dropout")

_BUCKET_OF = {op: bucket for bucket, ops in STAGE_OPS.items()
              for op in ops}
_BUCKET_OF.update({op: "autodiff.glue" for op in GLUE_OPS})

CONTRACT_FUNCTIONS = ("validate_sequence", "check_finite",
                      "check_histograms", "check_mask",
                      "check_shape_dtype", "check_symmetric_adjacency")


def stage_split(op_stats: Dict[str, Dict[str, float]]) -> dict:
    """Group an ``OpProfiler.as_dict()`` into stage buckets.

    Returns ``{"buckets": {bucket: {fwd_s, bwd_s, calls}},
    "unmapped": [labels], "total_s": float}``; unmapped labels are
    counted under ``autodiff.glue`` so the buckets always sum to the
    profiler total.
    """
    names = list(STAGE_OPS) + ["autodiff.glue"]
    buckets = {name: {"fwd_s": 0.0, "bwd_s": 0.0, "calls": 0}
               for name in names}
    unmapped = []
    total = 0.0
    for label, entry in op_stats.items():
        bucket = _BUCKET_OF.get(label)
        if bucket is None:
            unmapped.append(label)
            bucket = "autodiff.glue"
        buckets[bucket]["fwd_s"] += entry["forward_seconds"]
        buckets[bucket]["bwd_s"] += entry["backward_seconds"]
        buckets[bucket]["calls"] += entry["forward_calls"]
        total += entry["forward_seconds"] + entry["backward_seconds"]
    return {"buckets": buckets, "unmapped": sorted(unmapped),
            "total_s": total}


class NullTracer:
    """The untraced run: every hook is a no-op."""

    enabled = False
    active = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def request(self, request_id: int):
        return contextlib.nullcontext()

    def note(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    """In-memory span recorder for one process."""

    enabled = True

    def __init__(self):
        #: Off while the traced run repeats a phase untraced to measure
        #: the trace's own overhead; the patched entry points then call
        #: straight through.
        self.active = True
        self.spans: List[tuple] = []
        self.notes: Dict[str, List[float]] = {}
        self.outermost: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        if not self.active:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        nested = any(open_name == name for _, open_name in stack)
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append((index, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            request = getattr(self._local, "request", -1)
            self.spans[index] = (name, start, end, parent, request)
            if not nested:
                with self._lock:
                    self.outermost.setdefault(name, []).append(end - start)

    @contextlib.contextmanager
    def request(self, request_id: int):
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = -1

    def note(self, name: str, value: float) -> None:
        if not self.active:
            return
        with self._lock:
            self.notes.setdefault(name, []).append(float(value))

    def reset(self) -> None:
        """Forget everything (a forked worker starts from the parent's
        copy and must report only its own spans)."""
        self.spans = []
        self.notes = {}
        self.outermost = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _chain(self, index: int) -> List[str]:
        """Names of the enclosing spans of span ``index``, innermost
        first."""
        names = []
        parent = self.spans[index][3]
        while parent >= 0 and self.spans[parent] is not None:
            names.append(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names

    def durations(self, within: str, excluding: str
                  ) -> Dict[str, List[float]]:
        """Per name, durations of the outermost spans nested inside a
        ``within`` span but outside any ``excluding`` span."""
        out: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            chain = self._chain(index)
            if span[0] in chain or within not in chain \
                    or excluding in chain:
                continue
            out.setdefault(span[0], []).append(span[2] - span[1])
        return out

    def per_parent(self, parent_name: str) -> List[Dict[str, float]]:
        """For each ``parent_name`` span, total seconds per child name
        nested anywhere inside it."""
        totals = {i: {} for i, span in enumerate(self.spans)
                  if span is not None and span[0] == parent_name}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent] is not None:
                if parent in totals:
                    bucket = totals[parent]
                    bucket[span[0]] = bucket.get(span[0], 0.0) \
                        + span[2] - span[1]
                    break
                parent = self.spans[parent][3]
        return list(totals.values())

    def summary(self) -> dict:
        """Outermost-span durations per name and the notes (cheap: kept
        up to date as spans close)."""
        with self._lock:
            return {"durations": {k: list(v)
                                  for k, v in self.outermost.items()},
                    "notes": {k: list(v) for k, v in self.notes.items()}}

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, request in \
                    (s for s in self.spans if s is not None):
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "request": request}) + "\n")


# ----------------------------------------------------------------------
# outside-in instrumentation (traced processes only)
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _timed_generator(tracer: Tracer, name: str, fn):
    """Time each ``next()`` of a generator method (the batch pipeline
    does its work lazily, inside the trainer's loop)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            yield from fn(*args, **kwargs)
            return
        iterator = fn(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item
    return wrapper


def _registry_get(tracer: Tracer, fn):
    """``ModelRegistry.get``: a call that (re)loaded a model is a
    registry load; cache-resident gets are not counted."""
    @functools.wraps(fn)
    def wrapper(self, key):
        loads = self.loads
        start = time.perf_counter()
        try:
            return fn(self, key)
        finally:
            if self.loads > loads:
                tracer.note("serve.registry.load",
                            time.perf_counter() - start)
    return wrapper


def _ring_method(tracer: Tracer, name: str, fn):
    """``ShmRing.write``/``read``: time plus a per-ring call count, so
    the parent's writes show how requests spread over workers."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not tracer.active:
            return fn(self, *args, **kwargs)
        with tracer.span(name):
            result = fn(self, *args, **kwargs)
        tracer.note(f"{name}.ring:{self.name}", 1.0)
        return result
    return wrapper


def instrument(tracer: Tracer) -> None:
    """Patch the program's public entry points to record spans.

    Call once, before any worker process forks, so workers inherit the
    same hooks (their spans land in their own tracer and are collected
    through :func:`dump_worker`).
    """
    from repro import contracts
    from repro.autodiff.optim import Adam
    from repro.histograms.blocksparse import BlockSparseWindowDataset
    from repro.histograms.windows import WindowDataset
    from repro.serve import ModelRegistry
    import repro.persistence
    import repro.serve
    from repro.serve_shm import ShmRing

    for cls in (WindowDataset, BlockSparseWindowDataset):
        cls.batches = _timed_generator(tracer, "histograms.batches",
                                       cls.batches)
    Adam.step = _timed(tracer, "autodiff.optim.step", Adam.step)
    ModelRegistry.get = _registry_get(tracer, ModelRegistry.get)
    load = _timed(tracer, "persistence.load_checkpoint",
                  repro.persistence.load_checkpoint)
    repro.persistence.load_checkpoint = load
    repro.serve.load_checkpoint = load
    ShmRing.write = _ring_method(tracer, "serve_shm.ring.write",
                                 ShmRing.write)
    ShmRing.read = _ring_method(tracer, "serve_shm.ring.read",
                                ShmRing.read)
    # Contract checks are imported by name into many modules; rebind
    # every module-level reference to the same function object.
    originals = {name: getattr(contracts, name)
                 for name in CONTRACT_FUNCTIONS}
    wrapped = {name: _timed(tracer, "contracts.check", fn)
               for name, fn in originals.items()}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapped[name])


def dump_worker(tracer: Tracer, service, directory: Path) -> None:
    """Write one pool worker's spans and service counters to
    ``worker-<pid>.json`` (atomic replace; called after each request)."""
    payload = {"pid": os.getpid(), "trace": tracer.summary(),
               "stats": service.stats()}
    path = directory / f"worker-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def read_workers(directory: Path) -> List[dict]:
    return [json.loads(p.read_text())
            for p in sorted(directory.glob("worker-*.json"))]
