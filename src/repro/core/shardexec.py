"""Chunked execution of the AF's stage-1 factor computation.

The stage-1 bottleneck scales with ``N²``: every origin (and every
destination) contributes one GCNN slice encoding, so a batch of ``B``
tensors over ``N`` regions runs ``2·B·N`` slice encodings.  The slice
axis is embarrassingly partitionable — each origin slice is an
independent signal over the *destination* graph — so each side runs as
a sequence of **chunks**: contiguous runs of its slices, each run
through the node-major stage and head kernels
(``ops._gcnn_stage_forward``/``_backward``,
``ops._latent_head_forward``/``_backward``) on its own zero-padded
node-major ``(N, P)`` signal.  A chunk holds at most as many slices as
keep its first-stage ``(M·B, C)`` feature block within
:data:`_CHUNK_BYTES`, so its working set is a few MiB, near a core's L2,
instead of every stage streaming all slices through memory.

**Empty-slice fold.**  OD tensors are sparse: at paper scale about 30%
of the slices hold no trips at all.  Every empty slice has the same
(zero) input, hence the same outputs and caches, so a side runs only
its occupied slices plus its first empty slice, the representative
(:func:`_fold`).  The representative's output rows are copied to every
other empty slice, and the backward seeds the representative with the
sum of all empty slices' output gradients — exact by linearity, since
the backward is linear in the output gradient given the shared caches.
The fold is computed inside the node's forward thunk, from the data
it runs on, so the chunk schedule depends on each window's occupancy.
An input that requires a gradient is not folded: every slice runs, so
each gets its own input gradient.

The dense path (:func:`dense_factorize`) is one run of the folded
slices.  A :class:`~repro.graph.sharding.ShardPlan` splits the R side
along origin clusters and the C side along destination clusters, and
:class:`ShardedExecution` runs one shard's folded slices at a time
through the same chunk loop, with a strict per-shard memory budget
measured by tracemalloc.  A shard larger than one chunk is split like
the dense run.

Because the graph convolutions propagate along the *other* side's
graph, slicing the shard axis never crosses a convolution.  Every
per-slice forward result and data gradient comes from a GEMM that
cannot see the other slices' positions: the Laplacian terms are
``(N, N) @ (N, P)`` with ``P`` padded to full 32-column tiles, and the
channel mixes and head projections run over rows in full fixed-size row
tiles (``ops._ROW_TILE``).  On OpenBLAS a partial tile in either
direction breaks this (``tests/test_cheb_layout.py``).  So outputs and
input gradients are bit-identical however the slices are chunked or
folded.  The weight gradients are per-chunk partials summed in fixed
chunk order; they depend on the chunking in the last bits, which
motivates the two sharded modes:

``exact``
    Per-shard forward, but the caches are scattered into dense-order
    buffers of the folded slices and the backward runs the dense chunk
    schedule over them.  Bit-identical losses, gradients, weights and
    RNG versus the dense path — the parity mode the benchmark gate
    verifies — at the price of dense-sized caches.

``blocked``
    Per-shard backward: each shard's chunks are reduced in fixed
    shard-then-chunk order.  Deterministic run-to-run, memory bounded
    by the folded slices of one shard; weight gradients match dense to
    float round-off (not bitwise) because the chunks differ.

The plan's halos stay empty-handed here — they document what a
graph-axis sharding *would* exchange.
:func:`repro.core.spatial.factorize_tensor_batch` is the entry point the
model uses, with or without an execution.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff.ops import (_Pool, _gcnn_stage_backward, _gcnn_stage_forward,
                            _latent_head_backward, _latent_head_forward,
                            _node_major, _slice_major)
from ..autodiff.tensor import Tensor
from ..graph.sharding import Shard, ShardPlan

__all__ = ["ShardedExecution", "ShardMemoryBudgetError", "dense_factorize"]

# Bytes of one chunk's first-stage (M·B, C) feature block.  Swept on a
# 2 MiB-L2 core, stage-1 forward + backward, float64, one BLAS thread:
# at 67 regions (M = 88 cluster rows, C = 7 buckets, 48 intervals) the
# time is flat from 0.25 to 2 MiB (50–420 slices per chunk) and ~15%
# higher as one chunk per side; at 500 regions (M = 524) targets under
# 1 MiB re-read the 2 MB Laplacian once per extra chunk and lose 5–30%.
# At 2 MiB a 500-region chunk holds 71 slices, so blocked metro shards
# (4–73 occupied slices) almost never split.
_CHUNK_BYTES = 2 << 20


class ShardMemoryBudgetError(RuntimeError):
    """One shard's working set exceeded the configured memory budget."""

    def __init__(self, side: str, shard_index: int, used: int,
                 budget: int):
        super().__init__(
            f"shard {shard_index} ({side} side) used {used} bytes, over "
            f"the per-shard budget of {budget} bytes; use more shards or "
            f"raise memory_budget_bytes")
        self.side = side
        self.shard_index = shard_index
        self.used = used
        self.budget = budget


# ----------------------------------------------------------------------
# Per-stage execution constants (the stage kernels' arguments, per side)
# ----------------------------------------------------------------------
@dataclass
class _Stage:
    lap: np.ndarray
    lap_t: np.ndarray
    weight: Tensor
    bias: Tensor
    order: int
    pool: _Pool


def _side_stages(factorizer) -> Tuple[List[_Stage], Tuple[Tensor, ...]]:
    """Derive the per-stage constants from a SpatialFactorizer.

    Returns the stages and the latent head's parameters ``(w_buckets,
    b_buckets, w_latent, b_latent)``; ``factorizer._pool_specs`` holds
    each stage's pooling constants.
    """
    stages: List[_Stage] = []
    for conv, spec in zip(factorizer.convs, factorizer._pool_specs):
        lap = conv._scaled_lap.data
        stages.append(_Stage(
            lap=lap, lap_t=lap.T, weight=conv.weight, bias=conv.bias,
            order=conv.order,
            pool=_Pool(lap.shape[0], dtype=conv.weight.data.dtype,
                       **spec)))
    return stages, (factorizer.to_buckets.weight,
                    factorizer.to_buckets.bias,
                    factorizer.latent_proj.weight,
                    factorizer.latent_proj.bias)


# ----------------------------------------------------------------------
# One side's slices of the OD batch
# ----------------------------------------------------------------------
# Slice ``b·n_side + region`` of the R side is origin ``region``'s row
# ``tensors[b, region]`` (a signal over the destination graph); of the C
# side, destination ``region``'s column ``tensors[b, :, region]``.
def _shard_slices(shard: Shard, batch: int, n_side: int) -> np.ndarray:
    """The slices of a shard's regions, over a batch of ``batch``."""
    return (np.arange(batch)[:, None] * n_side
            + shard.owned[None, :]).ravel()


def _occupied(tensors: np.ndarray, side: str) -> np.ndarray:
    """Which of one side's slices hold any trips, in slice order."""
    return tensors.any(axis=(2, 3) if side == "r" else (1, 3)).ravel()


def _fold(occupied: np.ndarray,
          foldable: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(slices, empty)``: the slices a side runs, in slice order, and
    the empty slices folded onto the first of them, the representative
    (``None`` when nothing folds: no slice is empty, or not
    ``foldable``)."""
    empty = np.flatnonzero(~occupied)
    if not foldable or empty.size == 0:
        return np.arange(occupied.size), None
    keep = occupied.copy()
    keep[empty[0]] = True
    return np.flatnonzero(keep), empty


def _chunk_input(tensors: np.ndarray, side: str, slices: np.ndarray,
                 n_side: int) -> np.ndarray:
    """The padded node-major signal of ``slices``: each slice is relaid
    once, into the chunk that runs it."""
    b, region = np.divmod(slices, n_side)
    chunk = tensors[b, region] if side == "r" else tensors[b, :, region]
    return _node_major(chunk)


def _scatter_input_grad(dx: np.ndarray, side: str, slices: np.ndarray,
                        n_side: int, grad: np.ndarray) -> None:
    """Adjoint of :func:`_chunk_input`: write a chunk's padded node-major
    input gradient into ``dx``, the ``(B, N, N', K)`` batch gradient."""
    b, region = np.divmod(slices, n_side)
    values = _slice_major(grad, slices.size, dx.shape[-1])
    if side == "r":
        dx[b, region] = values
    else:
        dx[b, :, region] = values


def _chunk_slices(stages: Sequence[_Stage], dtype) -> int:
    """Most slices one chunk holds: as many as keep the first stage's
    ``(M·B, C)`` feature block within :data:`_CHUNK_BYTES`, at least
    one."""
    first = stages[0]
    channels = first.weight.shape[0] // first.order
    per_slice = first.pool.rows * channels * np.dtype(dtype).itemsize
    return max(1, _CHUNK_BYTES // per_slice)


def _chunks(slices: np.ndarray, limit: int) -> List[np.ndarray]:
    """A non-empty run of ``slices`` split, in order, into the fewest
    chunks of at most ``limit`` slices, of near-equal sizes."""
    return np.array_split(slices, -(-slices.size // limit))


# ----------------------------------------------------------------------
# Raw-array forward / backward over a chunk of slices: the node-major
# stage and head kernels, run on the chunk's columns.  A
# slice's outputs, caches and input gradient are bit-identical to its
# part of any other chunking (see the module docstring).
# ----------------------------------------------------------------------
def _forward_chunk(x: np.ndarray, batch: int, stages: Sequence[_Stage],
                   head: Sequence[Tensor]):
    """``batch`` slices as a padded node-major ``x (N, P)`` →
    ``((batch, R, K) output, caches)``.  Every cache array has the slice
    axis second to last."""
    caches = []
    for st in stages:
        x, cache = _gcnn_stage_forward(st.lap, x, st.weight.data,
                                       st.bias.data, st.order, batch,
                                       st.pool)
        caches.append(cache)
    out, cache = _latent_head_forward(x, *(p.data for p in head), batch)
    caches.append(cache)
    return out, caches


def _backward_chunk(grad: np.ndarray, caches, stages: Sequence[_Stage],
                    head: Sequence[Tensor], sink: "_GradSink",
                    need_input_grad: bool) -> Optional[np.ndarray]:
    """Adjoint of :func:`_forward_chunk`; returns the padded node-major
    input gradient when ``need_input_grad``."""
    grads = _latent_head_backward(grad, caches[-1], head[0].data,
                                  head[2].data)
    for param, value in zip(head, grads):
        sink.add(param, value)
    g = grads[4]
    for index in range(len(stages) - 1, -1, -1):
        st = stages[index]
        dweight, dbias, g = _gcnn_stage_backward(
            g, caches[index], st.lap_t, st.weight.data, st.pool,
            need_dx=index > 0 or need_input_grad)
        sink.add(st.weight, dweight)
        sink.add(st.bias, dbias)
    return g


class _GradSink:
    """Sums each parameter's per-chunk gradients locally, in call order,
    and flushes each total once, so the reduction order is the fixed
    chunk order however the chunks were scheduled."""

    def __init__(self):
        self._params: Dict[int, Tensor] = {}
        self._totals: Dict[int, np.ndarray] = {}

    def add(self, param: Tensor, value: np.ndarray) -> None:
        if not param.requires_grad:
            return
        key = id(param)
        if key in self._totals:
            self._totals[key] += value
        else:
            self._params[key] = param
            self._totals[key] = value

    def flush(self) -> None:
        for key, total in self._totals.items():
            self._params[key]._accumulate(total)
        self._totals.clear()
        self._params.clear()


def _unmeasured(index: int, fn: Callable[[], None]) -> None:
    fn()


def _forward_runs(od: np.ndarray, side: str, stages, head, n_side: int,
                  runs, out: np.ndarray, consume,
                  measure=_unmeasured) -> None:
    """The chunk loop.  Forward each ``(index, slices)`` run in chunks
    (:func:`_chunks`), write each chunk's output rows into ``out`` and
    hand ``consume(slices, caches)`` its caches, in order.
    ``measure(index, fn)`` runs one run's chunks (the per-shard memory
    budget)."""
    limit = _chunk_slices(stages, od.dtype)
    for index, slices in runs:
        def forward_run(slices=slices) -> None:
            for chunk in _chunks(slices, limit):
                out[chunk], caches = _forward_chunk(
                    _chunk_input(od, side, chunk, n_side), chunk.size,
                    stages, head)
                consume(chunk, caches)
        measure(index, forward_run)


def _dense_forward(od, side, stages, head, n_side, slices, out,
                   state) -> None:
    """A side's folded slices as one run."""
    chunks = state["chunks"] = []
    _forward_runs(od, side, stages, head, n_side, [(0, slices)], out,
                  lambda slices, caches: chunks.append((slices, caches)))


# The op label the profiler books a dense side under (e2ebench maps it to
# core.factorize).
_DENSE_LABELS = ("fused_gcnn_stage", "fused_gcnn_stage")


def _side_node(tensors: Tensor, factorizer, side: str, n_side: int,
               forward, labels: Tuple[str, str],
               occupancy: Optional[dict] = None) -> Tensor:
    """One side's stage 1 over ``tensors (B, N, N', K)`` as one graph
    node: ``(B·n_side, R, K)``.

    The forward thunk folds the empty slices (:func:`_fold`; not for an
    input that requires a gradient) and leaves the fold in
    ``state["fold"]``.  ``forward(od, side, stages, head, n_side,
    slices, out, state)`` then fills ``out`` at ``slices``, the folded
    slice set, and leaves ``state["chunks"]``, the ``(slices, caches)``
    chunks the backward runs in order.  ``occupancy``, when given,
    receives the side's slice and occupied-slice counts on every
    forward.  The run and backward closures carry ``labels``, the names
    the op profiler books.
    """
    stages, head = _side_stages(factorizer)
    params = [p for st in stages for p in (st.weight, st.bias)]
    params.extend(head)
    rank, k = head[2].shape[-1], head[0].shape[-1]
    state: dict = {}

    def run() -> np.ndarray:
        od = tensors.data
        occupied = _occupied(od, side)
        slices, empty = _fold(occupied, not tensors.requires_grad)
        state["fold"] = empty
        if occupancy is not None:
            occupancy[side] = {"slices": int(occupied.size),
                               "occupied": int(occupied.sum()),
                               "occupancy": float(occupied.mean())}
        out = np.empty((occupied.size, rank, k), dtype=od.dtype)
        forward(od, side, stages, head, n_side, slices, out, state)
        if empty is not None:
            out[empty[1:]] = out[empty[0]]
        return out

    def backward(grad: np.ndarray) -> None:
        empty = state.pop("fold")
        if empty is not None:
            # Every empty slice shares the representative's caches, and
            # the backward is linear in the output gradient given those
            # caches, so one backward of the summed gradient equals the
            # sum of their backwards.
            grad = grad.copy()
            grad[empty[0]] = grad[empty].sum(axis=0)
        sink = _GradSink()
        dx = np.empty(tensors.shape, dtype=tensors.data.dtype) \
            if tensors.requires_grad else None
        for slices, caches in state.pop("chunks"):
            g = _backward_chunk(grad[slices], caches, stages, head, sink,
                                need_input_grad=dx is not None)
            if dx is not None:
                _scatter_input_grad(dx, side, slices, n_side, g)
        sink.flush()
        if dx is not None:
            tensors._accumulate(dx)

    run.__qualname__ = f"{labels[0]}.<locals>.run"
    backward.__qualname__ = f"{labels[1]}.<locals>.backward"
    return Tensor._make(run, (tensors,) + tuple(params), backward)


def _factorize(factorizer_r, factorizer_c, tensors: Tensor, forward,
               labels: Tuple[str, str],
               occupancy: Optional[dict] = None) -> Tuple[Tensor, Tensor]:
    batch, n_origins, n_dests, k = tensors.shape
    r = _side_node(tensors, factorizer_r, "r", n_origins, forward, labels,
                   occupancy)
    c = _side_node(tensors, factorizer_c, "c", n_dests, forward, labels,
                   occupancy)
    r = r.reshape(batch, n_origins, factorizer_r.rank, k)
    c = c.reshape(batch, n_dests, factorizer_c.rank, k)
    return r, c.transpose((0, 2, 1, 3))


def dense_factorize(factorizer_r, factorizer_c,
                    tensors: Tensor) -> Tuple[Tensor, Tensor]:
    """Both sides' stage 1 over their folded slices, one side at a time,
    in chunks: ``(B, N, N', K)`` → ``R (B, N, β, K)``,
    ``C (B, β, N', K)``."""
    return _factorize(factorizer_r, factorizer_c, tensors, _dense_forward,
                      _DENSE_LABELS)


# ----------------------------------------------------------------------
class ShardedExecution:
    """Executes stage-1 factorization shard by shard under a plan.

    Parameters
    ----------
    plan:
        Validated :class:`~repro.graph.sharding.ShardPlan`; origin
        shards drive the R side, destination shards the C side.
    mode:
        ``"exact"`` (bit-identical to dense; dense-sized backward
        caches) or ``"blocked"`` (per-shard reduction; memory bounded,
        deterministic, float-level parity).
    memory_budget_bytes:
        Optional hard cap on one shard's incremental working set,
        enforced with tracemalloc on the first forward after
        construction (the profiled forward).
    """

    MODES = ("exact", "blocked")

    def __init__(self, plan: ShardPlan, mode: str = "blocked",
                 memory_budget_bytes: Optional[int] = None):
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        plan.validate()
        self.plan = plan
        self.mode = mode
        self.memory_budget_bytes = memory_budget_bytes
        self.shard_peaks: Dict[str, List[int]] = {"r": [], "c": []}
        self.last_occupancy: Dict[str, dict] = {}
        self._profile_pending = True
        self._profiling = False
        self._started_tracing = False

    # ------------------------------------------------------------------
    def supports(self, model) -> Tuple[bool, str]:
        """Whether this execution can run ``model``'s stage 1."""
        for name in ("factor_r", "factor_c"):
            factorizer = getattr(model, name, None)
            if factorizer is None:
                return False, f"model has no {name} factorizer"
        if self.plan.n_origins != model.n_origins \
                or self.plan.n_destinations != model.n_destinations:
            return False, (
                f"plan covers {self.plan.n_origins}x"
                f"{self.plan.n_destinations} regions but the model has "
                f"{model.n_origins}x{model.n_destinations}")
        return True, "ok"

    @property
    def max_shard_peak_bytes(self) -> int:
        peaks = self.shard_peaks["r"] + self.shard_peaks["c"]
        return max(peaks) if peaks else 0

    def describe(self) -> dict:
        """Summary for telemetry and benchmark reports."""
        return {"mode": self.mode,
                "memory_budget_bytes": self.memory_budget_bytes,
                "max_shard_peak_bytes": self.max_shard_peak_bytes,
                "occupancy": self.last_occupancy,
                "plan": self.plan.describe()}

    # ------------------------------------------------------------------
    def factorize(self, factorizer_r, factorizer_c,
                  tensors: Tensor) -> Tuple[Tensor, Tensor]:
        """Sharded :func:`dense_factorize`: ``(B, N, N', K)`` →
        ``R (B, N, β, K)``, ``C (B, β, N', K)``."""
        batch, n_origins, n_dests, k = tensors.shape
        if n_origins != self.plan.n_origins \
                or n_dests != self.plan.n_destinations:
            raise ValueError(
                f"tensor batch is {n_origins}x{n_dests} regions but the "
                f"plan covers {self.plan.n_origins}x"
                f"{self.plan.n_destinations}")
        if self.mode == "blocked" and tensors.requires_grad:
            raise NotImplementedError(
                "blocked mode does not propagate gradients into the "
                "history input (only weight gradients reduce per "
                "shard); use mode='exact' or detach the input")
        if self.mode == "exact":
            forward, labels = self._exact_forward, ("_exact_run",
                                                    "_exact_backward")
        else:
            forward, labels = self._blocked_forward, ("_blocked_run",
                                                      "_blocked_backward")
        profiled = self._profile_pending
        if profiled:
            self._profile_pending = False
            self.shard_peaks = {"r": [], "c": []}
            self._profiling = True
            self._started_tracing = not tracemalloc.is_tracing()
            if self._started_tracing:
                tracemalloc.start()
        try:
            return _factorize(factorizer_r, factorizer_c, tensors, forward,
                              labels, self.last_occupancy)
        finally:
            if profiled:
                self._profiling = False
                if self._started_tracing:
                    tracemalloc.stop()
                    self._started_tracing = False

    # ------------------------------------------------------------------
    def _measure(self, side: str, shard_index: int, fn) -> None:
        """Run ``fn`` under a per-shard tracemalloc measurement."""
        if not self._profiling:
            fn()
            return
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
        used = max(int(peak - baseline), 0)
        self.shard_peaks[side].append(used)
        budget = self.memory_budget_bytes
        if budget is not None and used > budget:
            raise ShardMemoryBudgetError(side, shard_index, used, budget)

    def _shard_runs(self, side: str, n_side: int, slices: np.ndarray,
                    batch: int) -> list:
        """``(shard index, slices)`` per shard of ``side``, restricted to
        the folded ``slices``; shards left empty are skipped."""
        shards = self.plan.origin_shards if side == "r" \
            else self.plan.dest_shards
        keep = np.zeros(batch * n_side, dtype=bool)
        keep[slices] = True
        runs = []
        for shard in shards:
            owned = _shard_slices(shard, batch, n_side)
            owned = owned[keep[owned]]
            if owned.size == 0:
                if self._profiling:
                    self.shard_peaks[side].append(0)
                continue
            runs.append((shard.index, owned))
        return runs

    def _run_shards(self, od, side, stages, head, n_side, slices, out,
                    consume) -> None:
        _forward_runs(
            od, side, stages, head, n_side,
            self._shard_runs(side, n_side, slices, od.shape[0]), out,
            consume,
            lambda index, fn: self._measure(side, index, fn))

    # ------------------------------------------------------------------
    # exact mode: per-shard forward, dense-order caches, backward over
    # the dense chunk schedule
    # ------------------------------------------------------------------
    def _exact_forward(self, od, side, stages, head, n_side, slices, out,
                       state) -> None:
        full: list = []

        def scatter(chunk, caches) -> None:
            if not full:
                full.extend(
                    tuple(np.empty(a.shape[:-2] + (slices.size,
                                                   a.shape[-1]),
                                   dtype=a.dtype) for a in cache)
                    for cache in caches)
            at = np.searchsorted(slices, chunk)
            for dense, part in zip(full, caches):
                for array, values in zip(dense, part):
                    array[..., at, :] = values

        self._run_shards(od, side, stages, head, n_side, slices, out,
                         scatter)
        # Each dense chunk's caches, copied out of dense order when the
        # backward reaches it: the same arrays a dense forward keeps.
        state["chunks"] = (
            (slices[at], [tuple(np.ascontiguousarray(a[..., at, :])
                                for a in cache) for cache in full])
            for at in _chunks(np.arange(slices.size),
                              _chunk_slices(stages, od.dtype)))

    # ------------------------------------------------------------------
    # blocked mode: per-shard backward reduction
    # ------------------------------------------------------------------
    def _blocked_forward(self, od, side, stages, head, n_side, slices, out,
                         state) -> None:
        chunks = state["chunks"] = []
        self._run_shards(
            od, side, stages, head, n_side, slices, out,
            lambda chunk, caches: chunks.append((chunk, caches)))
