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
graph, slicing the shard axis never crosses a convolution: per-shard
forwards are bit-identical rows of the dense forward.  The channel-mix
GEMMs are row-partitioned: a shard owns whole ``(slice, node)`` rows of
the ``(B·N, C·S)`` feature matrix.  The Chebyshev recursion
(``ops._cheb_terms``/``_cheb_adjoint``) runs node-major: a shard's
slices are columns of one ``(N, N) @ (N, P)`` GEMM per term.  ``P`` is
padded to full 32-column tiles, so a column's value does not depend on
how many other slices share the call.  On OpenBLAS an unpadded count
breaks this (``tests/test_cheb_layout.py``).
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

import multiprocessing
import tracemalloc
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff.ops import _cheb_adjoint, _cheb_feats, _cheb_terms
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
        n = self.slices_per_sample_total
        return (np.arange(batch)[:, None] * n
                + self.shard.owned[None, :]).ravel()

    # Total slices per sample on this side (the shard axis length);
    # set post-construction by the execution that builds the unit.
    slices_per_sample_total: int = 0


# ----------------------------------------------------------------------
# Per-stage execution constants (mirrors ops.fused_gcnn_stage exactly)
# ----------------------------------------------------------------------
@dataclass
class _Stage:
    lap: np.ndarray
    lap_t: np.ndarray
    weight: Tensor
    bias: Tensor
    order: int
    n_nodes: int
    channels: int
    q: int
    stride: int
    perm: Optional[np.ndarray]
    real: Optional[np.ndarray]
    perm_real: Optional[np.ndarray]
    cluster_of_node: np.ndarray
    scale: Optional[np.ndarray]


@dataclass
class _Head:
    w_buckets: Tensor
    b_buckets: Tensor
    w_latent: Tensor
    b_latent: Tensor
    k: int
    rank: int

    @property
    def params(self) -> Tuple[Tensor, ...]:
        return (self.w_buckets, self.b_buckets, self.w_latent,
                self.b_latent)


def _lap_array(scaled_lap) -> np.ndarray:
    return scaled_lap.data if isinstance(scaled_lap, Tensor) \
        else np.asarray(scaled_lap)


def _side_stages(factorizer) -> Tuple[List[_Stage], _Head]:
    """Derive the per-stage constants from a SpatialFactorizer.

    Requires mean pooling (``factorizer._fused_specs`` is the same
    per-stage constant set the fused kernels use); max pooling has no
    sharded path — callers check :meth:`ShardedExecution.supports`.
    """
    if factorizer._fused_specs is None:
        raise ValueError(
            "sharded execution requires mean pooling (the factorizer "
            "has no fused stage constants)")
    stages: List[_Stage] = []
    for conv, spec in zip(factorizer.convs, factorizer._fused_specs):
        lap = _lap_array(conv._scaled_lap)
        n = lap.shape[0]
        order = conv.order
        stride = spec["stride"]
        perm = spec["perm"]
        if perm is not None:
            real = perm < n
            perm_real = perm[real]
            inverse = np.empty(n, dtype=np.intp)
            inverse[perm_real] = np.nonzero(real)[0]
            cluster_of_node = inverse // stride
        else:
            real = perm_real = None
            cluster_of_node = np.arange(n, dtype=np.intp) // stride
        scale = spec["inv_counts"][:, None] if stride > 1 else None
        stages.append(_Stage(
            lap=lap, lap_t=lap.T, weight=conv.weight, bias=conv.bias,
            order=order, n_nodes=n,
            channels=conv.weight.shape[0] // order,
            q=conv.weight.shape[-1], stride=stride, perm=perm, real=real,
            perm_real=perm_real, cluster_of_node=cluster_of_node,
            scale=scale))
    head = _Head(w_buckets=factorizer.to_buckets.weight,
                 b_buckets=factorizer.to_buckets.bias,
                 w_latent=factorizer.latent_proj.weight,
                 b_latent=factorizer.latent_proj.bias,
                 k=factorizer.n_buckets, rank=factorizer.rank)
    return stages, head


# ----------------------------------------------------------------------
# Raw-array forward / backward over a chunk of slice rows.  The array
# op sequences mirror ops.fused_gcnn_stage / ops.fused_latent_head
# line for line: per-shard results are bit-identical rows of the dense
# computation (row-partitioned mix GEMMs, tile-padded Chebyshev
# columns; see the module docstring), which is what makes the exact
# mode's reassembled backward bit-identical overall.
# ----------------------------------------------------------------------
def _forward_chunk(x_rows: np.ndarray, stages: Sequence[_Stage],
                   head: _Head, need_caches: bool = True):
    m = x_rows.shape[0]
    cur = x_rows
    stage_caches = [] if need_caches else None
    for st in stages:
        terms = _cheb_terms(st.lap, cur, st.order)
        feats = _cheb_feats(terms, st.order)
        act = (feats @ st.weight.data).reshape(m, st.n_nodes, st.q)
        act += st.bias.data
        np.maximum(act, 0.0, out=act)
        if st.perm is not None:
            pooled_src = np.zeros((m, st.perm.size, st.q),
                                  dtype=act.dtype)
            pooled_src[:, st.real] = act[:, st.perm_real]
        else:
            pooled_src = act
        if st.stride > 1:
            width = pooled_src.shape[1]
            out = pooled_src.reshape(m, width // st.stride, st.stride,
                                     st.q).sum(axis=2)
            out *= st.scale
        else:
            out = pooled_src
        if need_caches:
            stage_caches.append((feats, act))
        cur = out
    x_head = cur                                        # (m, P, C)
    t = x_head @ head.w_buckets.data + head.b_buckets.data
    tt = t.transpose(0, 2, 1)                           # (m, K, P)
    z = tt @ head.w_latent.data + head.b_latent.data    # (m, K, R)
    out = np.ascontiguousarray(z.transpose(0, 2, 1))    # (m, R, K)
    caches = (stage_caches, x_head, tt) if need_caches else None
    return out, caches


def _backward_chunk(grad: np.ndarray, caches, stages: Sequence[_Stage],
                    head: _Head, sink: "_GradSink",
                    need_input_grad: bool) -> Optional[np.ndarray]:
    stage_caches, x_head, tt = caches
    gz = grad.transpose(0, 2, 1)                        # (m, K, R)
    gz2 = gz.reshape(-1, head.rank)
    sink.add(head.w_latent, tt.reshape(-1, tt.shape[-1]).T @ gz2)
    sink.add(head.b_latent, gz2.sum(axis=0))
    dt = np.matmul(gz, head.w_latent.data.T).transpose(0, 2, 1)
    dt2 = dt.reshape(-1, head.k)
    sink.add(head.w_buckets,
             x_head.reshape(-1, x_head.shape[-1]).T @ dt2)
    sink.add(head.b_buckets, dt2.sum(axis=0))
    g = np.matmul(dt, head.w_buckets.data.T)            # (m, P, C)
    for index in range(len(stages) - 1, -1, -1):
        st = stages[index]
        feats, act = stage_caches[index]
        m = act.shape[0]
        if st.stride > 1:
            scaled = g * st.scale
            dact = scaled[:, st.cluster_of_node]
            dact *= act > 0
        elif st.perm is not None:
            dact = g[:, st.cluster_of_node]
            dact *= act > 0
        else:
            dact = g * (act > 0)
        gm = dact.reshape(m * st.n_nodes, st.q)
        sink.add(st.weight, feats.T @ gm)
        sink.add(st.bias, gm.sum(axis=0))
        if index > 0 or need_input_grad:
            g = _cheb_adjoint(st.lap_t, gm, st.weight.data,
                              (m, st.n_nodes, st.channels), st.order)
    return g if need_input_grad else None


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
        r_slices = tensors.reshape(batch * n_origins, n_dests, k)
        c_slices = tensors.transpose((0, 2, 1, 3)).reshape(
            batch * n_dests, n_origins, k)
        profiled = self._profile_pending
        if profiled:
            self._profile_pending = False
            self.shard_peaks = {"r": [], "c": []}
            self._profiling = True
            self._started_tracing = not tracemalloc.is_tracing()
            if self._started_tracing:
                tracemalloc.start()
        try:
            r = self._side_node(r_slices, factorizer_r, "r", batch,
                                self.plan.origin_shards)
            c = self._side_node(c_slices, factorizer_c, "c", batch,
                                self.plan.dest_shards)
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
    def _shard_rows(self, shard: Shard, batch: int,
                    n_side: int) -> np.ndarray:
        return (np.arange(batch)[:, None] * n_side
                + shard.owned[None, :]).ravel()

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

    def _side_node(self, x: Tensor, factorizer, side: str, batch: int,
                   shards: Tuple[Shard, ...]) -> Tensor:
        stages, head = _side_stages(factorizer)
        if self.mode == "blocked" and x.requires_grad:
            raise NotImplementedError(
                "blocked mode does not propagate gradients into the "
                "history input (zero-slice collapse shares forward "
                "state); use mode='exact' or detach the input")
        params: List[Tensor] = []
        for st in stages:
            params.extend((st.weight, st.bias))
        params.extend(head.params)
        n_side = self.plan.n_origins if side == "r" \
            else self.plan.n_destinations
        state: dict = {}
        if self.mode == "exact":
            run = self._exact_run(x, stages, head, side, batch, shards,
                                  n_side, state)
            backward = self._exact_backward(x, stages, head, state)
        else:
            run = self._blocked_run(x, stages, head, side, batch,
                                    shards, n_side, state)
            backward = self._blocked_backward(x, stages, head, state)
        out = Tensor._make(_run_forward(run), (x,) + tuple(params),
                           backward)
        _record(out, run)
        return out

    # ------------------------------------------------------------------
    # exact mode: per-shard forward, dense-order caches, dense backward
    # ------------------------------------------------------------------
    def _exact_run(self, x, stages, head, side, batch, shards, n_side,
                   state):
        def run() -> np.ndarray:
            x3 = x.data
            total = x3.shape[0]
            dtype = x3.dtype
            feats_full = [np.empty((total, st.n_nodes,
                                    st.channels * st.order), dtype=dtype)
                          for st in stages]
            act_full = [np.empty((total, st.n_nodes, st.q), dtype=dtype)
                        for st in stages]
            head_in = None
            tt_full = None
            out_full = np.empty((total, head.rank, head.k), dtype=dtype)
            for shard in shards:
                rows = self._shard_rows(shard, batch, n_side)

                def one_shard(rows=rows):
                    return _forward_chunk(x3[rows], stages, head)

                out, (stage_caches, x_head, tt) = self._measure(
                    side, shard.index, one_shard)
                if head_in is None:
                    head_in = np.empty((total,) + x_head.shape[1:],
                                       dtype=dtype)
                    tt_full = np.empty((total,) + tt.shape[1:],
                                       dtype=dtype)
                for i, (feats, act) in enumerate(stage_caches):
                    feats_full[i][rows] = feats.reshape(
                        rows.size, stages[i].n_nodes, -1)
                    act_full[i][rows] = act
                head_in[rows] = x_head
                tt_full[rows] = tt
                out_full[rows] = out
            stage_caches_full = [
                (feats_full[i].reshape(total * stages[i].n_nodes, -1),
                 act_full[i]) for i in range(len(stages))]
            state["caches"] = (stage_caches_full, head_in, tt_full)
            return out_full
        return run

    def _exact_backward(self, x, stages, head, state):
        def backward(grad: np.ndarray) -> None:
            sink = _GradSink(direct=True)
            g = _backward_chunk(grad, state.pop("caches"), stages, head,
                                sink, need_input_grad=x.requires_grad)
            if x.requires_grad:
                x._accumulate(g)
        return backward

    # ------------------------------------------------------------------
    # blocked mode: zero-slice collapse + per-shard backward reduction
    # ------------------------------------------------------------------
    def _blocked_run(self, x, stages, head, side, batch, shards, n_side,
                     state):
        def run() -> np.ndarray:
            x3 = x.data
            total = x3.shape[0]
            occupied = x3.reshape(total, -1).any(axis=1)
            # All-empty slices share one forward state: the network's
            # bias response.  Compute it once from a single zero slice.
            zero = np.zeros((1,) + x3.shape[1:], dtype=x3.dtype)
            out_zero, caches_zero = _forward_chunk(zero, stages, head)
            out_full = np.empty((total, head.rank, head.k),
                                dtype=x3.dtype)
            empty = ~occupied
            out_full[empty] = out_zero
            shard_caches = []
            for shard in shards:
                rows = self._shard_rows(shard, batch, n_side)
                rows = rows[occupied[rows]]
                if rows.size == 0:
                    if self._profiling:
                        self.shard_peaks[side].append(0)
                    continue

                def one_shard(rows=rows):
                    return _forward_chunk(x3[rows], stages, head)

                out, caches = self._measure(side, shard.index, one_shard)
                out_full[rows] = out
                shard_caches.append((rows, caches))
            state["shards"] = shard_caches
            state["empty"] = empty
            state["caches_zero"] = caches_zero
            self.last_occupancy[side] = {
                "slices": int(total),
                "occupied": int(occupied.sum()),
                "occupancy": float(occupied.mean())}
            return out_full
        return run

    def _blocked_backward(self, x, stages, head, state):
        def backward(grad: np.ndarray) -> None:
            sink = _GradSink(direct=False)
            for rows, caches in state.pop("shards"):
                _backward_chunk(grad[rows], caches, stages, head, sink,
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
        r_slices = tensors.reshape(batch * n_origins, n_dests, k)
        c_slices = np.ascontiguousarray(
            tensors.transpose(0, 2, 1, 3)).reshape(
                batch * n_dests, n_origins, k)
        r = self._side_arrays(r_slices, factorizer_r, batch,
                              self.plan.origin_shards, n_origins, n_jobs)
        c = self._side_arrays(c_slices, factorizer_c, batch,
                              self.plan.dest_shards, n_dests, n_jobs)
        r = r.reshape(batch, n_origins, factorizer_r.rank, k)
        c = c.reshape(batch, n_dests, factorizer_c.rank, k)
        return r, c.transpose(0, 2, 1, 3)

    def _side_arrays(self, x3, factorizer, batch, shards, n_side,
                     n_jobs):
        stages, head = _side_stages(factorizer)
        total = x3.shape[0]
        occupied = x3.reshape(total, -1).any(axis=1)
        zero = np.zeros((1,) + x3.shape[1:], dtype=x3.dtype)
        out_zero, _ = _forward_chunk(zero, stages, head,
                                     need_caches=False)
        out_full = np.empty((total, head.rank, head.k), dtype=x3.dtype)
        out_full[~occupied] = out_zero
        row_sets = []
        thunks = []
        for shard in shards:
            rows = self._shard_rows(shard, batch, n_side)
            rows = rows[occupied[rows]]
            if rows.size == 0:
                continue
            row_sets.append(rows)
            thunks.append(lambda rows=rows: _forward_chunk(
                x3[rows], stages, head, need_caches=False)[0])
        for rows, out in zip(row_sets, _run_thunks(thunks, n_jobs)):
            out_full[rows] = out
        return out_full
