"""Sharded execution of the AF's stage-1 factor computation.

The stage-1 bottleneck scales with ``N²``: every origin (and every
destination) contributes one GCNN slice encoding, so a batch of ``B``
tensors over ``N`` regions runs ``2·B·N`` slice encodings whose
activations alone dwarf memory at metro scale.  The slice axis is
embarrassingly partitionable — each origin slice is an independent
signal over the *destination* graph — so a :class:`~repro.graph.sharding.ShardPlan`
splits the R side along origin clusters and the C side along
destination clusters, and this module runs one shard's slices at a
time, with a strict per-shard memory budget measured by tracemalloc.

Because the graph convolutions propagate along the *other* side's
graph, slicing the shard axis never crosses a convolution.  A shard
runs the same node-major stage and head kernels as the dense fused ops
(``ops._gcnn_stage_forward``/``_backward``,
``ops._latent_head_forward``/``_backward``) on its own slices: each
slice is relaid once, into its chunk's zero-padded node-major
``(N, P)`` signal; the activations stay node-major through every stage
and come back slice-major only at the head's exit.  Per-shard forwards
are bit-identical slices of the dense forward, because every per-slice
result comes from a GEMM that cannot see the other slices' positions:
the Laplacian terms are ``(N, N) @ (N, P)`` with ``P`` padded to full
32-column tiles, and the channel mixes and head projections run over
rows in full fixed-size row tiles (``ops._ROW_TILE``).  On OpenBLAS a
partial tile in either direction breaks this (``tests/test_cheb_layout.py``).
The plan's halos therefore stay empty-handed here — they document what
a graph-axis sharding *would* exchange — and the only parity hazard is
the backward weight reduction, which motivates the two modes:

``exact``
    Per-shard forward, but the per-stage caches are scattered into
    full dense-order buffers and the backward runs the dense math
    (single full-size GEMMs per parameter).  Bit-identical losses,
    gradients, weights and RNG versus the dense path — the parity mode
    the benchmark gate verifies — at the price of dense-sized caches.

``blocked``
    Per-shard backward accumulating into per-parameter buffers in
    fixed shard order, plus **zero-slice collapse**: at metro scale
    most OD slices are entirely empty, all empty slices share one
    forward state (the bias response), so they are computed once
    forward and their output gradients are summed into a single
    pseudo-shard backward — exact by linearity.  Deterministic
    run-to-run, memory bounded by the occupied slices of one shard,
    and the source of the wall-clock win on sparse cities; weight
    gradients match dense to float round-off (not bitwise) because
    the reduction is chunked.

:func:`repro.core.spatial.sharded_factorize_tensor_batch` is the entry
point the model uses; :meth:`ShardedExecution.factorize_arrays` is the
raw-numpy inference twin (no autodiff, optional fork fan-out across
shards for multi-core hosts).
"""

from __future__ import annotations

import functools
import multiprocessing
import tracemalloc
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff.ops import (_Pool, _gcnn_stage_backward, _gcnn_stage_forward,
                            _latent_head_backward, _latent_head_forward,
                            _node_major, _padded)
from ..autodiff.tensor import Tensor, _record, _run_forward
from ..graph.sharding import Shard, ShardPlan

__all__ = ["ShardedExecution", "ShardMemoryBudgetError",
           "DataParallelUnit"]


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


@dataclass(frozen=True)
class DataParallelUnit:
    """One schedulable unit of sharded stage-1 work.

    A unit is (side, shard): the slices of one origin shard encoded
    over the destination graph (side ``"r"``), or one destination
    shard's slices over the origin graph (side ``"c"``).  Units share
    parameters and reduce gradients into them; they own disjoint slice
    rows, so any subset can run on any worker in any order (the
    ``exact`` mode reduction is order-free, ``blocked`` fixes the
    order for determinism).
    """

    side: str
    shard: Shard
    slices_per_sample: int
    graph_nodes: int

    @property
    def index(self) -> int:
        return self.shard.index

    def slice_rows(self, batch: int) -> np.ndarray:
        """Rows of this unit in the flattened ``(B·N, nodes, K)`` slice
        batch (slice ``b·N + region`` for each owned region)."""
        return _shard_slices(self.shard, batch,
                             self.slices_per_sample_total)

    # Total slices per sample on this side (the shard axis length);
    # set post-construction by the execution that builds the unit.
    slices_per_sample_total: int = 0


# ----------------------------------------------------------------------
# Per-stage execution constants (the fused ops' arguments, per side)
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
    b_buckets, w_latent, b_latent)``.  Requires mean pooling
    (``factorizer._fused_specs`` is the same per-stage constant set the
    fused kernels use); max pooling has no sharded path — callers check
    :meth:`ShardedExecution.supports`.
    """
    if factorizer._fused_specs is None:
        raise ValueError(
            "sharded execution requires mean pooling (the factorizer "
            "has no fused stage constants)")
    stages: List[_Stage] = []
    for conv, spec in zip(factorizer.convs, factorizer._fused_specs):
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


def _chunk_input(tensors: np.ndarray, side: str, slices: np.ndarray,
                 n_side: int) -> np.ndarray:
    """The padded node-major signal of ``slices``: each slice is relaid
    once, into the chunk that runs it."""
    b, region = np.divmod(slices, n_side)
    chunk = tensors[b, region] if side == "r" else tensors[b, :, region]
    return _node_major(chunk)


def _side_grad(dx: np.ndarray, shape: tuple, side: str) -> np.ndarray:
    """A side's padded node-major input gradient ``(nodes, P)`` over all
    its slices, in the ``(B, N, N', K)`` layout of the batch."""
    batch, n_origins, n_dests, k = shape
    if side == "r":
        rows = dx[:, :batch * n_origins * k].reshape(
            n_dests, batch, n_origins, k)
        return rows.transpose(1, 2, 0, 3)
    rows = dx[:, :batch * n_dests * k].reshape(n_origins, batch, n_dests, k)
    return rows.transpose(1, 0, 2, 3)


# ----------------------------------------------------------------------
# Raw-array forward / backward over a chunk of slices: the fused ops'
# node-major stage and head helpers, run on the chunk's columns.  A
# slice's outputs and caches are bit-identical to its part of the dense
# computation (see the module docstring), which is what makes the exact
# mode's reassembled backward bit-identical overall.
# ----------------------------------------------------------------------
def _forward_chunk(x: np.ndarray, batch: int, stages: Sequence[_Stage],
                   head: Sequence[Tensor], need_caches: bool = True):
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
    return out, (caches if need_caches else None)


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
    """Accumulates gradient contributions per parameter.

    ``direct=True`` forwards each contribution straight to the
    parameter (exact mode touches every parameter exactly once, with
    the full-size dense GEMM); ``direct=False`` sums contributions
    locally in call order and flushes once, so the blocked mode's
    reduction order is the fixed shard order regardless of how shards
    were scheduled.
    """

    def __init__(self, direct: bool):
        self.direct = direct
        self._params: Dict[int, Tensor] = {}
        self._totals: Dict[int, np.ndarray] = {}

    def add(self, param: Tensor, value: np.ndarray) -> None:
        if not param.requires_grad:
            return
        if self.direct:
            param._accumulate(value)
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


# ----------------------------------------------------------------------
def _forked_entry(conn, thunk):
    try:
        conn.send(("ok", thunk()))
    except Exception as exc:                    # pragma: no cover
        conn.send(("err", repr(exc)))
    finally:
        conn.close()


def _run_thunks(thunks: List, n_jobs: int) -> List:
    """Run thunks serially or across forked workers (``n_jobs`` at a
    time).  Fork start method required for parallelism — the thunks
    close over live numpy state; only results cross the pipe."""
    if n_jobs <= 1 or len(thunks) <= 1 \
            or "fork" not in multiprocessing.get_all_start_methods():
        return [thunk() for thunk in thunks]
    ctx = multiprocessing.get_context("fork")
    results = [None] * len(thunks)
    pending = deque(enumerate(thunks))
    active: deque = deque()
    while pending or active:
        while pending and len(active) < n_jobs:
            index, thunk = pending.popleft()
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_forked_entry, args=(child, thunk))
            proc.start()
            child.close()
            active.append((index, proc, parent))
        index, proc, parent = active.popleft()
        status, payload = parent.recv()
        proc.join()
        parent.close()
        if status != "ok":
            raise RuntimeError(
                f"sharded inference worker {index} failed: {payload}")
        results[index] = payload
    return results


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
        caches) or ``"blocked"`` (zero-slice collapse + per-shard
        reduction; memory bounded, deterministic, float-level parity).
    memory_budget_bytes:
        Optional hard cap on one shard's incremental working set,
        enforced with tracemalloc on profiled forwards (the first
        forward after construction or :meth:`arm_profile`).
    n_jobs:
        Fork fan-out for :meth:`factorize_arrays` (inference only;
        training stays single-process for determinism).
    """

    MODES = ("exact", "blocked")

    def __init__(self, plan: ShardPlan, mode: str = "blocked",
                 memory_budget_bytes: Optional[int] = None,
                 n_jobs: int = 1):
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        plan.validate()
        self.plan = plan
        self.mode = mode
        self.memory_budget_bytes = memory_budget_bytes
        self.n_jobs = int(n_jobs)
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
            if factorizer._fused_specs is None:
                return False, (f"{name} uses max pooling; the sharded "
                               f"path needs mean pooling")
        if self.plan.n_origins != model.n_origins \
                or self.plan.n_destinations != model.n_destinations:
            return False, (
                f"plan covers {self.plan.n_origins}x"
                f"{self.plan.n_destinations} regions but the model has "
                f"{model.n_origins}x{model.n_destinations}")
        return True, "ok"

    def data_parallel_units(self) -> List[DataParallelUnit]:
        """The schedulable (side, shard) units this plan defines."""
        units = []
        for shard in self.plan.origin_shards:
            units.append(DataParallelUnit(
                side="r", shard=shard,
                slices_per_sample=shard.size,
                graph_nodes=self.plan.n_destinations,
                slices_per_sample_total=self.plan.n_origins))
        for shard in self.plan.dest_shards:
            units.append(DataParallelUnit(
                side="c", shard=shard,
                slices_per_sample=shard.size,
                graph_nodes=self.plan.n_origins,
                slices_per_sample_total=self.plan.n_destinations))
        return units

    def arm_profile(self) -> None:
        """Profile (and budget-check) the next forward's shards."""
        self._profile_pending = True

    @property
    def max_shard_peak_bytes(self) -> int:
        peaks = self.shard_peaks["r"] + self.shard_peaks["c"]
        return max(peaks) if peaks else 0

    def describe(self) -> dict:
        """Summary for telemetry and benchmark reports."""
        return {"mode": self.mode,
                "memory_budget_bytes": self.memory_budget_bytes,
                "n_jobs": self.n_jobs,
                "max_shard_peak_bytes": self.max_shard_peak_bytes,
                "occupancy": self.last_occupancy,
                "plan": self.plan.describe()}

    # ------------------------------------------------------------------
    def factorize(self, factorizer_r, factorizer_c,
                  tensors: Tensor) -> Tuple[Tensor, Tensor]:
        """Sharded twin of
        :func:`repro.core.spatial.factorize_tensor_batch`:
        ``(B, N, N', K)`` → ``R (B, N, β, K)``, ``C (B, β, N', K)``."""
        batch, n_origins, n_dests, k = tensors.shape
        if n_origins != self.plan.n_origins \
                or n_dests != self.plan.n_destinations:
            raise ValueError(
                f"tensor batch is {n_origins}x{n_dests} regions but the "
                f"plan covers {self.plan.n_origins}x"
                f"{self.plan.n_destinations}")
        profiled = self._profile_pending
        if profiled:
            self._profile_pending = False
            self.shard_peaks = {"r": [], "c": []}
            self._profiling = True
            self._started_tracing = not tracemalloc.is_tracing()
            if self._started_tracing:
                tracemalloc.start()
        try:
            r = self._side_node(tensors, factorizer_r, "r",
                                self.plan.origin_shards, n_origins)
            c = self._side_node(tensors, factorizer_c, "c",
                                self.plan.dest_shards, n_dests)
        finally:
            if profiled:
                self._profiling = False
                if self._started_tracing:
                    tracemalloc.stop()
                    self._started_tracing = False
        r = r.reshape(batch, n_origins, factorizer_r.rank, k)
        c = c.reshape(batch, n_dests, factorizer_c.rank, k)
        return r, c.transpose((0, 2, 1, 3))

    # ------------------------------------------------------------------
    def _measure(self, side: str, shard_index: int, fn):
        """Run ``fn`` under a per-shard tracemalloc measurement."""
        if not self._profiling:
            return fn()
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
        used = max(int(peak - baseline), 0)
        self.shard_peaks[side].append(used)
        budget = self.memory_budget_bytes
        if budget is not None and used > budget:
            raise ShardMemoryBudgetError(side, shard_index, used, budget)
        return result

    def _side_node(self, tensors: Tensor, factorizer, side: str,
                   shards: Tuple[Shard, ...], n_side: int) -> Tensor:
        """One side's stage 1 over ``tensors (B, N, N', K)`` as one graph
        node: ``(B·n_side, R, K)``."""
        stages, head = _side_stages(factorizer)
        if self.mode == "blocked" and tensors.requires_grad:
            raise NotImplementedError(
                "blocked mode does not propagate gradients into the "
                "history input (zero-slice collapse shares forward "
                "state); use mode='exact' or detach the input")
        params = [p for st in stages for p in (st.weight, st.bias)]
        params.extend(head)
        state: dict = {}
        args = (tensors, stages, head, side, shards, n_side, state)
        if self.mode == "exact":
            run = self._exact_run(*args)
            backward = self._exact_backward(*args)
        else:
            run = self._blocked_run(*args)
            backward = self._blocked_backward(*args)
        out = Tensor._make(_run_forward(run), (tensors,) + tuple(params),
                           backward)
        _record(out, run)
        return out

    def _forward_shards(self, od, side, stages, head, shards, n_side,
                        consume, occupied=None, need_caches=True,
                        n_jobs=1) -> None:
        """Forward each shard's slices (only the ``occupied`` ones when
        given) and hand ``consume(slices, out, caches)`` the results in
        shard order."""
        runs = []
        for shard in shards:
            slices = _shard_slices(shard, od.shape[0], n_side)
            if occupied is not None:
                slices = slices[occupied[slices]]
                if slices.size == 0:
                    if self._profiling:
                        self.shard_peaks[side].append(0)
                    continue
            runs.append((shard.index, slices))

        def one_shard(index, slices):
            return self._measure(side, index, lambda: _forward_chunk(
                _chunk_input(od, side, slices, n_side), slices.size,
                stages, head, need_caches))

        if n_jobs > 1:
            results = _run_thunks([functools.partial(one_shard, *run)
                                   for run in runs], n_jobs)
        else:
            results = (one_shard(*run) for run in runs)
        for (_, slices), (out, caches) in zip(runs, results):
            consume(slices, out, caches)

    def _collapsed_forward(self, od, side, stages, head, shards, n_side,
                           need_caches=True, n_jobs=1):
        """Forward with zero-slice collapse: ``(out, [(slices, caches)],
        empty mask, the empty slices' shared caches)``."""
        occupied = _occupied(od, side)
        zero = np.zeros((stages[0].lap.shape[0], _padded(od.shape[-1])),
                        dtype=od.dtype)
        out_zero, caches_zero = _forward_chunk(zero, 1, stages, head,
                                               need_caches)
        out = np.empty((occupied.size,) + out_zero.shape[1:], dtype=od.dtype)
        out[~occupied] = out_zero
        chunks = []

        def consume(slices, chunk_out, caches):
            out[slices] = chunk_out
            chunks.append((slices, caches))

        self._forward_shards(od, side, stages, head, shards, n_side,
                             consume, occupied, need_caches, n_jobs)
        return out, chunks, ~occupied, caches_zero

    # ------------------------------------------------------------------
    # exact mode: per-shard forward, dense-order caches, dense backward
    # ------------------------------------------------------------------
    def _exact_run(self, tensors, stages, head, side, shards, n_side,
                   state):
        def run() -> np.ndarray:
            od = tensors.data
            total = od.shape[0] * n_side
            full = {}

            def consume(slices, chunk_out, caches):
                if not full:
                    full["out"] = np.empty((total,) + chunk_out.shape[1:],
                                           dtype=od.dtype)
                    full["caches"] = [
                        tuple(np.empty(a.shape[:-2] + (total, a.shape[-1]),
                                       dtype=a.dtype) for a in cache)
                        for cache in caches]
                full["out"][slices] = chunk_out
                for dense, part in zip(full["caches"], caches):
                    for array, chunk in zip(dense, part):
                        array[..., slices, :] = chunk

            self._forward_shards(od, side, stages, head, shards, n_side,
                                 consume)
            state["caches"] = full["caches"]
            return full["out"]
        return run

    def _exact_backward(self, tensors, stages, head, side, shards, n_side,
                        state):
        def backward(grad: np.ndarray) -> None:
            sink = _GradSink(direct=True)
            g = _backward_chunk(grad, state.pop("caches"), stages, head,
                                sink, need_input_grad=tensors.requires_grad)
            if tensors.requires_grad:
                tensors._accumulate(_side_grad(g, tensors.shape, side))
        return backward

    # ------------------------------------------------------------------
    # blocked mode: zero-slice collapse + per-shard backward reduction
    # ------------------------------------------------------------------
    def _blocked_run(self, tensors, stages, head, side, shards, n_side,
                     state):
        def run() -> np.ndarray:
            out, state["chunks"], state["empty"], state["caches_zero"] = \
                self._collapsed_forward(tensors.data, side, stages, head,
                                        shards, n_side)
            empty = state["empty"]
            self.last_occupancy[side] = {
                "slices": int(empty.size),
                "occupied": int(empty.size - empty.sum()),
                "occupancy": float(1.0 - empty.mean())}
            return out
        return run

    def _blocked_backward(self, tensors, stages, head, side, shards, n_side,
                          state):
        def backward(grad: np.ndarray) -> None:
            sink = _GradSink(direct=False)
            for slices, caches in state.pop("chunks"):
                _backward_chunk(grad[slices], caches, stages, head, sink,
                                need_input_grad=False)
            empty = state.pop("empty")
            caches_zero = state.pop("caches_zero")
            if empty.any():
                # The collapse pseudo-shard: every empty slice has the
                # same forward caches, and the backward is linear in the
                # output gradient given those caches, so one backward of
                # the summed gradient equals the sum of backwards.
                grad_empty = grad[empty].sum(axis=0, keepdims=True)
                _backward_chunk(grad_empty, caches_zero, stages, head,
                                sink, need_input_grad=False)
            sink.flush()
        return backward

    # ------------------------------------------------------------------
    # Raw-array inference path (serving): forward only, zero-slice
    # collapse always on, optional fork fan-out across shards.
    # ------------------------------------------------------------------
    def factorize_arrays(self, factorizer_r, factorizer_c,
                         tensors: np.ndarray,
                         n_jobs: Optional[int] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Forward-only sharded factorization of raw arrays.

        Returns ``(R, C)`` numpy arrays with the same shapes as
        :meth:`factorize`.  ``n_jobs > 1`` fans shards out across
        forked workers (results-only pipe transport); the default
        (``self.n_jobs``) keeps it serial, where the zero-slice
        collapse is still the wall-clock win on sparse cities.
        """
        tensors = np.asarray(tensors)
        batch, n_origins, n_dests, k = tensors.shape
        n_jobs = self.n_jobs if n_jobs is None else int(n_jobs)
        sides = []
        for factorizer, side, shards, n_side in (
                (factorizer_r, "r", self.plan.origin_shards, n_origins),
                (factorizer_c, "c", self.plan.dest_shards, n_dests)):
            stages, head = _side_stages(factorizer)
            out = self._collapsed_forward(tensors, side, stages, head,
                                          shards, n_side, need_caches=False,
                                          n_jobs=n_jobs)[0]
            sides.append(out.reshape(batch, n_side, factorizer.rank, k))
        r, c = sides
        return r, c.transpose(0, 2, 1, 3)
