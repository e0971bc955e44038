"""Differentiable functions operating on :class:`~repro.autodiff.Tensor`.

These complement the operator overloads on ``Tensor`` with the
nonlinearities, normalizations, and structural operations the paper's
models need (sigmoid/tanh gates, per-cell softmax recovery, concatenation
of graph-convolution slices, dropout regularization, ...).

Like the ``Tensor`` operators, every op here wraps its forward math in a
local ``run()`` thunk and ends with ``return Tensor._make(run, parents,
backward)``, which runs the thunk (timed under a profiler) and links the
graph edge.  Thunks bind — via ``nonlocal`` — every intermediate their
backward closure reads.  Data-dependent *validation* (zero divisors,
non-positive log inputs) stays outside the thunks, before ``_make``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .tensor import Tensor, _ensure_tensor, _unbroadcast


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid on a raw array.

    The piecewise form ``1/(1+e^-x)`` for ``x >= 0`` and
    ``e^x/(1+e^x)`` for ``x < 0`` only ever exponentiates non-positive
    values, so it cannot overflow — no ``RuntimeWarning`` leaks even
    when the test suite promotes warnings to errors.  ``exp`` of a very
    negative value flushing to 0.0 is exact, and the errstate guard
    keeps any platform that signals that underflow quiet.
    """
    with np.errstate(under="ignore"):
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, z) / (1.0 + z)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = np.exp(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(run, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm.

    Rejects zero/negative inputs up front: ``np.log`` would silently
    turn them into ``-inf``/``nan`` that only surface many ops later,
    with no trace of where they were born.
    """
    x = _ensure_tensor(x)
    if (x.data <= 0).any():
        n_bad = int((x.data <= 0).sum())
        raise ValueError(
            f"log: input contains {n_bad} zero/negative value(s) "
            f"(min {x.data.min():.6g}, shape {x.shape}); this would "
            f"silently propagate -inf/nan through the graph — clip to a "
            f"positive floor with ops.maximum(x, eps) or add a positive "
            f"offset first")

    def run() -> np.ndarray:
        return np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(run, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = np.sqrt(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * 0.5 / out_data)

    return Tensor._make(run, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = _stable_sigmoid(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(run, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = np.tanh(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._make(run, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    x = _ensure_tensor(x)
    mask = None

    def run() -> np.ndarray:
        nonlocal mask
        mask = x.data > 0
        return x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(run, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the max-subtraction stabilizer.

    This is the paper's recovery operator (Eq. 3): each OD cell's K raw
    scores are normalized into a probability histogram.
    """
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # d softmax: s * (grad - sum(grad * s))
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._make(run, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (gradient splits back)."""
    tensors = [_ensure_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def run() -> np.ndarray:
        return np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for tensor_i, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor_i.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor_i._accumulate(grad[tuple(index)])

    return Tensor._make(run, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new axis."""
    tensors = [_ensure_tensor(t) for t in tensors]

    def run() -> np.ndarray:
        return np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor_i, slab in zip(tensors, slabs):
            if tensor_i.requires_grad:
                tensor_i._accumulate(slab)

    return Tensor._make(run, tuple(tensors), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum (ties route gradient to the first input)."""
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    a_wins = None

    def run() -> np.ndarray:
        nonlocal a_wins
        a_wins = a.data >= b.data
        return np.maximum(a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * a_wins, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~a_wins), b.shape))

    return Tensor._make(run, (a, b), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with probability ``rate``.

    At evaluation time (``training=False``) this is the identity, matching
    the usual inference-time semantics.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _ensure_tensor(x)
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = None

    def run() -> np.ndarray:
        nonlocal mask
        # Mask in the input dtype: a float64 mask would silently upcast
        # activations and gradients under float32 training.
        mask = (rng.random(x.shape) < keep).astype(x.data.dtype)
        mask /= keep
        return x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(run, (x,), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is data)."""
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    condition = np.asarray(condition, dtype=bool)

    def run() -> np.ndarray:
        return np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~condition), b.shape))

    return Tensor._make(run, (a, b), backward)


def pad_axis(x: Tensor, axis: int, before: int, after: int,
             value: float = 0.0) -> Tensor:
    """Pad ``x`` along a single axis with a constant.

    Used by the graph-pooling stage, which appends "fake" nodes so the
    coarsened graph size is divisible by the pooling stride.
    """
    x = _ensure_tensor(x)
    widths = [(0, 0)] * x.ndim
    widths[axis] = (before, after)
    n = x.shape[axis]

    def run() -> np.ndarray:
        return np.pad(x.data, widths, constant_values=value)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            index = [slice(None)] * grad.ndim
            index[axis] = slice(before, before + n)
            x._accumulate(grad[tuple(index)])

    return Tensor._make(run, (x,), backward)


def take_axis(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Gather slices of ``x`` at ``indices`` along ``axis``.

    Used to permute graph nodes into cluster order before pooling.
    """
    x = _ensure_tensor(x)
    indices = np.asarray(indices, dtype=np.intp)
    # Distinct indices (e.g. the coarsening permutation) scatter to
    # disjoint slots, so the gradient is a plain fancy assignment;
    # only duplicated indices need the far slower accumulating add.at.
    unique = np.unique(indices).size == indices.size

    def run() -> np.ndarray:
        return np.take(x.data, indices, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            index = [slice(None)] * x.ndim
            index[axis] = indices
            if unique:
                full[tuple(index)] = grad
            else:
                np.add.at(full, tuple(index), grad)
            x._accumulate(full)

    return Tensor._make(run, (x,), backward)


def mean_pool_axis(x: Tensor, axis: int, stride: int) -> Tensor:
    """Average-pool ``x`` along ``axis`` with non-overlapping windows."""
    return _pool_axis(x, axis, stride)


def _pool_axis(x: Tensor, axis: int, stride: int) -> Tensor:
    # A function of its own because the op profiler labels this op by
    # its name, and e2ebench/spans.py books the label "_pool_axis".
    x = _ensure_tensor(x)
    n = x.shape[axis]
    if n % stride != 0:
        raise ValueError(
            f"axis length {n} not divisible by pool stride {stride}; "
            "pad with fake nodes first")
    moved_shape = None

    def run() -> np.ndarray:
        nonlocal moved_shape
        moved = np.moveaxis(x.data, axis, 0)
        moved_shape = moved.shape
        grouped = moved.reshape(n // stride, stride, *moved.shape[1:])
        return np.moveaxis(grouped.mean(axis=1), 0, axis)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gmoved = np.moveaxis(grad, axis, 0)
        expanded = np.repeat(gmoved, stride, axis=0) / stride
        x._accumulate(np.moveaxis(expanded.reshape(moved_shape), 0, axis))

    return Tensor._make(run, (x,), backward)


# ======================================================================
# Fused kernels
# ======================================================================
# Composite ops covering the models' hot paths: each one evaluates a
# whole sub-expression (GRU cell, CNRNN cell, masked loss, and stage 1's
# factorizer below) in raw numpy and records a SINGLE graph node whose
# backward closure is the hand-written adjoint.  This removes the
# per-primitive Python closure overhead and the numpy temporaries that
# otherwise dominate training wall-clock (see docs/AUTODIFF.md, "Fused
# kernels").
#
# Each fused op is the only implementation of its sub-expression.  The
# same math written with the primitive ops above lives in tests/oracles.py,
# the ground truth for the parity tests in tests/test_autodiff_fused.py.
# A kernel stays only while it beats its oracle end to end: ChebConv,
# recovery and the Dirichlet energy run as primitive ops.


# ----------------------------------------------------------------------
# Chebyshev recursion helpers (paper Eq. 5)
# ----------------------------------------------------------------------
# The Chebyshev recursion runs node-major: the signal is held as
# (…, N, B·C) so each term is one (N, N) @ (N, B·C) GEMM for all slices,
# not one GEMM per slice that re-reads the Laplacian each time.
#
# Node-major GEMMs pad their column count with zeros to a multiple of
# this.  OpenBLAS sums a column in a partial micro-kernel tile (or in a
# call small enough for its small-matrix kernel) in another order, so
# without full tiles a slice's value would depend on which slices share
# its GEMM, and exact-mode sharding would drift from dense.
_COL_TILE = 32

# The node-major factorizer's per-row GEMMs run one tile of this many
# rows at a time (see _tile_matmul): the rows' bits then do not depend on
# how many rows a call holds, and a tile's partial products stay in cache.
_ROW_TILE = 1024


def _padded(cols: int) -> int:
    """``cols`` rounded up to a multiple of :data:`_COL_TILE`."""
    return -(-cols // _COL_TILE) * _COL_TILE


def _scratch(shape: tuple, dtype, pad_from: int) -> np.ndarray:
    """A fresh working array for the node-major kernels whose columns
    ``pad_from:`` are zero; callers never write them."""
    buf = np.empty(shape, dtype=dtype)
    buf[..., pad_from:] = 0.0
    return buf


def _node_major(signal: np.ndarray) -> np.ndarray:
    """``(…, B, N, C)`` signal → zero-padded node-major ``(…, N, P)``:
    column ``b*C + c`` holds slice ``b``, channel ``c``, and ``P`` is
    ``B·C`` rounded up to a multiple of :data:`_COL_TILE`.
    """
    b, n, c = signal.shape[-3:]
    buf = _scratch(signal.shape[:-3] + (n, _padded(b * c)), signal.dtype,
                   pad_from=b * c)
    _slice_major(buf, b, c)[...] = signal
    return buf


def _slice_major(buf: np.ndarray, b: int, c: int) -> np.ndarray:
    """The ``(…, B, N, C)`` view of a padded node-major buffer."""
    return np.swapaxes(
        buf[..., :b * c].reshape(buf.shape[:-1] + (b, c)), -3, -2)


def _cheb_terms(lap: np.ndarray, signal: np.ndarray,
                order: int) -> list:
    """Chebyshev terms of a batched graph signal (raw numpy).

    ``signal (B, N, C)`` → list of ``order`` arrays, each ``(B, N, C)``,
    from ``T_s = 2·L·T_{s-1} − T_{s-2}``.  The signal is relaid once
    into a padded node-major ``(N, P)`` buffer; each term is then one
    Laplacian GEMM against every slice's columns, and terms ``1..`` come
    back as slice-major views of those buffers (term 0 is ``signal``
    itself).

    A slice's terms do not depend on which other slices are in the
    batch, bit for bit, because every column sits in a full
    :data:`_COL_TILE` tile; ``tests/test_cheb_layout.py`` pins this.
    """
    if order == 1:
        return [signal]
    b, _, c = signal.shape
    terms = [_node_major(signal)]
    terms.append(np.matmul(lap, terms[0]))
    for _ in range(2, order):
        t = np.matmul(lap, terms[-1])
        t *= 2.0
        t -= terms[-2]
        terms.append(t)
    return [signal] + [_slice_major(t, b, c) for t in terms[1:]]


def _cheb_feats(terms: list, order: int) -> np.ndarray:
    """Interleave Chebyshev terms into the feature matrix ``(B·N, C·S)``.

    Feature column ``c*order + s`` matches ChebConv's weight-row layout,
    so the forward mix, the weight gradient, and the adjoint seed are
    each one full-weight GEMM against this matrix.
    """
    b, n, c = terms[0].shape
    if order == 1:
        return terms[0].reshape(b * n, c)
    out = np.empty((b, n, c, order), dtype=terms[0].dtype)
    for s, term in enumerate(terms):
        out[..., s] = term
    return out.reshape(b * n, c * order)


def _cheb_adjoint(lap_t: np.ndarray, dmixed: np.ndarray,
                  weight: np.ndarray, shape: tuple,
                  order: int) -> np.ndarray:
    """Signal adjoint of mix∘terms: ``dmixed (B·N, Q)`` → ``shape``
    (the forward signal's shape ``(B, N, C)``).

    Seeds every term's adjoint with one GEMM ``dmixed · Wᵀ`` (splitting
    the interleaved columns per term), then runs the Chebyshev
    recursion's adjoint (sweeping the term index down,
    ``a_{s-1} += 2 Lᵀ a_s``, ``a_{s-2} -= a_s``) node-major, as
    :func:`_cheb_terms` does.  Term 0 only takes elementwise updates, so
    it stays slice-major.
    """
    dfull = np.matmul(dmixed, weight.T).reshape(shape + (order,))
    if order == 1:
        return dfull[..., 0]
    b, _, c = shape
    adj = [dfull[..., 0]]
    adj += list(_node_major(np.moveaxis(dfull[..., 1:], -1, 0)))
    for s in range(order - 1, 1, -1):
        adj[s - 1] += 2.0 * np.matmul(lap_t, adj[s])
        if s == 2:
            adj[0] = adj[0] - _slice_major(adj[2], b, c)
        else:
            adj[s - 2] -= adj[s]
    out = np.empty(shape, dtype=dfull.dtype)
    np.add(_slice_major(np.matmul(lap_t, adj[1]), b, c), adj[0], out=out)
    return out


# ----------------------------------------------------------------------
# Node-major GCNN factorizer (paper §V-A: ChebConv + ReLU + pooling,
# then the latent head)
# ----------------------------------------------------------------------
# Activations stay node-major, zero-padded ``(N, P)`` buffers from the
# factorizer's input to its latent head (docs/AUTODIFF.md, "The
# node-major factorizer").  These kernels are stage 1's only
# implementation: core/shardexec.py's chunk loop runs them for the AF's
# dense and sharded stage 1 and for a single SpatialFactorizer call.
class _Pool:
    """One stage's cluster pooling, as row operations on the node axis.

    ``stride`` nodes pool into one cluster after the optional padded
    permutation ``perm`` (the coarsening's; entries ``>= n`` are fake
    nodes), scaled by ``inv_counts`` (1 / real nodes per cluster, 0 for
    all-fake clusters).  ``stride=1`` and ``perm=None`` is the identity.

    The stage keeps its activations in cluster order — ``rows`` rows,
    row ``i`` holding node ``src[i]`` and fake rows held at zero — so
    pooling sums ``stride`` adjacent rows and its adjoint repeats each
    cluster's row.
    """

    def __init__(self, n: int, stride: int = 1, perm: np.ndarray = None,
                 inv_counts: np.ndarray = None, dtype=np.float64):
        self.stride = stride
        self.src = self.position = self.fake = None
        self.rows = n
        if perm is not None:
            real = perm < n
            # Fake rows read a real node, then are zeroed.
            self.src = np.where(real, perm, 0).astype(np.intp)
            self.fake = np.flatnonzero(~real)
            self.position = np.empty(n, dtype=np.intp)
            self.position[perm[real]] = np.flatnonzero(real)
            self.rows = perm.size
        self.size = self.rows // stride
        self.scale = inv_counts.astype(dtype, copy=False)[:, None] \
            if stride > 1 else None


def _row_buffer(rows: int, cols: int, dtype,
                terms: int = None) -> np.ndarray:
    """A ``(rows, cols)`` working array, or ``terms`` of them stacked,
    padded to whole :data:`_ROW_TILE` row tiles; the pad rows are
    zero."""
    tiled = -(-rows // _ROW_TILE) * _ROW_TILE
    stack = () if terms is None else (terms,)
    buf = _scratch(stack + (tiled * cols,), dtype, pad_from=rows * cols)
    return _view(buf, stack + (-1, cols))


def _view(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``a`` reshaped without a copy (raises if that is impossible)."""
    view = a.view()
    view.shape = shape
    return view


def _tile_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out = a @ b`` for a row buffer ``a (R, K)`` of whole
    :data:`_ROW_TILE` tiles: one GEMM per tile.

    On OpenBLAS a row's result can depend on how many rows share the
    call (the small-matrix kernel, the micro-kernel's row tail); with
    every call exactly ``_ROW_TILE`` rows it depends on the row alone.
    """
    tiles = a.shape[0] // _ROW_TILE
    np.matmul(_view(a, (tiles, _ROW_TILE, a.shape[1])), b,
              out=_view(out, (tiles, _ROW_TILE, out.shape[1])))


def _gcnn_stage_forward(lap: np.ndarray, x: np.ndarray,
                        weight: np.ndarray, bias: np.ndarray, order: int,
                        batch: int, pool: _Pool):
    """One factorizer stage on node-major signals (raw numpy).

    ``x (N, P)`` is a padded node-major signal of ``batch`` slices,
    ``lap (N, N)`` the scaled Laplacian, ``weight (C·order, Q)`` and
    ``bias (Q,)`` the Cheby-Net parameters.  Returns ``(out, cache)``:
    ``out (N', P')`` is the padded node-major pooled activation of ``Q``
    channels and ``cache`` is what :func:`_gcnn_stage_backward` reads:
    each term's features ``(M, B, C)`` and the activation ``(M, B, Q)``,
    in cluster order (see :class:`_Pool`), with the slice axis second to
    last.
    """
    c = weight.shape[0] // order
    q = weight.shape[1]
    m = pool.rows
    rows = m * batch
    bc, bq = batch * c, batch * q
    dtype = x.dtype
    feats = _row_buffer(rows, c, dtype, terms=order)
    terms = np.empty((order - 1,) + x.shape, dtype=dtype)
    prev2, prev = None, x
    for s in range(order):
        if s == 0:
            term = x
        else:
            term = np.matmul(lap, prev, out=terms[s - 1])
            if s > 1:
                np.multiply(term, 2.0, out=term)
                np.subtract(term, prev2, out=term)
            prev2, prev = prev, term
        # The term's real columns as (M·B, C) rows, in cluster order.
        dest = _view(feats[s][:rows], (m, bc))
        if pool.src is None:
            np.copyto(dest, term[:, :bc])
        else:
            np.take(term[:, :bc], pool.src, axis=0, out=dest, mode="clip")
            dest[pool.fake] = 0.0
    # act = Σ_s T_s @ W_s, bias, ReLU, one row tile at a time so the
    # partial products stay in cache.
    weights = [weight[s::order] for s in range(order)]
    act = _row_buffer(rows, q, dtype)
    part = np.empty((_ROW_TILE, q), dtype=dtype)
    for r0 in range(0, act.shape[0], _ROW_TILE):
        block = act[r0:r0 + _ROW_TILE]
        np.matmul(feats[0][r0:r0 + _ROW_TILE], weights[0], out=block)
        for s in range(1, order):
            np.matmul(feats[s][r0:r0 + _ROW_TILE], weights[s], out=part)
            np.add(block, part, out=block)
        np.add(block, bias, out=block)
        np.maximum(block, 0.0, out=block)
    act = _view(act[:rows], (m, batch, q))
    if pool.fake is not None:
        act[pool.fake] = 0.0
    out = _scratch((pool.size, _padded(bq)), dtype, pad_from=bq)
    pooled = out[:, :bq]
    clusters = _view(act, (pool.size, pool.stride, bq))
    if pool.stride == 1:
        np.copyto(pooled, clusters[:, 0])
    else:
        np.add(clusters[:, 0], clusters[:, 1], out=pooled)
        for j in range(2, pool.stride):
            np.add(pooled, clusters[:, j], out=pooled)
        np.multiply(pooled, pool.scale, out=pooled)
    return out, tuple(_view(f[:rows], (m, batch, c))
                      for f in feats) + (act,)


def _gcnn_stage_backward(grad: np.ndarray, cache, lap_t: np.ndarray,
                         weight: np.ndarray, pool: _Pool,
                         need_dx: bool = True):
    """Adjoint of :func:`_gcnn_stage_forward`.

    ``grad (N', ≥B·Q)`` holds node-major rows of the output gradient
    (a padded buffer or a plain row block).  Returns ``(dweight, dbias,
    dx)``; ``dx`` is the padded node-major ``(N, P)`` input gradient,
    or ``None`` when ``need_dx`` is false.
    """
    *feats, act = cache
    order = len(feats)
    m, batch, q = act.shape
    c = feats[0].shape[-1]
    rows = m * batch
    bc, bq = batch * c, batch * q
    dtype = act.dtype
    g = grad[:, :bq]
    if pool.scale is not None:
        g = np.multiply(g, pool.scale, out=np.empty(g.shape, dtype=dtype))
    # Unpooling repeats each cluster's row over its ``stride`` rows;
    # the ReLU mask (zero on fake rows) applies on the way.
    live = np.greater(act, 0)
    gm = _row_buffer(rows, q, dtype)
    shape = (pool.size, pool.stride, bq)
    np.multiply(g[:, None, :], _view(live, shape),
                out=_view(gm[:rows], shape))
    dweight = np.empty(weight.shape, dtype=dtype)
    for s in range(order):
        part = _view(feats[s], (rows, c))
        np.matmul(part.T, gm[:rows], out=dweight[s::order])
    dbias = np.matmul(np.ones(rows, dtype=dtype), gm[:rows])
    if not need_dx:
        return dweight, dbias, None
    # Seed every term's adjoint (gm @ W_sᵀ, back in node order) in a
    # padded node-major buffer, then run the recursion's adjoint
    # (a_{s-1} += 2 Lᵀ a_s, a_{s-2} -= a_s).
    n = lap_t.shape[-1]
    adj = _scratch((order, n, _padded(bc)), dtype, pad_from=bc)
    seed = _row_buffer(rows, c, dtype)
    for s, a in enumerate(adj):
        _tile_matmul(gm, weight[s::order].T, seed)
        seed_rows = _view(seed[:rows], (m, bc))
        if pool.position is not None:
            seed_rows = np.take(seed_rows, pool.position, axis=0,
                                mode="clip")
        np.copyto(a[:, :bc], seed_rows)
    if order > 1:
        prop = np.empty(adj[0].shape, dtype=dtype)
    for s in range(order - 1, 1, -1):
        np.matmul(lap_t, adj[s], out=prop)
        np.multiply(prop, 2.0, out=prop)
        np.add(adj[s - 1], prop, out=adj[s - 1])
        np.subtract(adj[s - 2], adj[s], out=adj[s - 2])
    if order > 1:
        np.matmul(lap_t, adj[1], out=prop)
        np.add(adj[0], prop, out=adj[0])
    return dweight, dbias, adj[0]


def _latent_head_forward(x: np.ndarray, w_buckets: np.ndarray,
                         b_buckets: np.ndarray, w_latent: np.ndarray,
                         b_latent: np.ndarray, batch: int):
    """The factorizer's latent head on node-major rows (raw numpy).

    ``x (P, ≥B·C)`` holds the last stage's node-major rows (``P``
    pooled clusters).  The bucket projection ``(P·B, C) @ (C, K)`` and
    the cluster→rank projection, one GEMM ``W_latᵀ (R, P) @ (P, B·K)``,
    both run node-major; the result is relaid to slice-major only here,
    at the factorizer's exit.  Returns ``(out (B, R, K), cache)`` with
    ``cache = (xs (P, B, C), t (P, B, K))``.
    """
    p = x.shape[0]
    c, k = w_buckets.shape
    rank = w_latent.shape[1]
    rows = p * batch
    bk = batch * k
    dtype = x.dtype
    xs = _row_buffer(rows, c, dtype)
    np.copyto(_view(xs[:rows], (p, batch * c)), x[:, :batch * c])
    t = _row_buffer(rows, k, dtype)
    _tile_matmul(xs, w_buckets, t)
    t = t[:rows]
    np.add(t, b_buckets, out=t)
    t_pad = _scratch((p, _padded(bk)), dtype, pad_from=bk)
    np.copyto(t_pad[:, :bk], _view(t, (p, bk)))
    z = np.matmul(w_latent.T, t_pad)
    out = np.empty((batch, rank, k), dtype=dtype)
    np.add(np.swapaxes(_view(z[:, :bk], (rank, batch, k)), 0, 1),
           b_latent[:, None], out=out)
    return out, (_view(xs[:rows], (p, batch, c)), _view(t, (p, batch, k)))


def _latent_head_backward(grad: np.ndarray, cache, w_buckets: np.ndarray,
                          w_latent: np.ndarray, need_dx: bool = True):
    """Adjoint of :func:`_latent_head_forward`: ``grad (B, R, K)`` →
    ``(dw_buckets, db_buckets, dw_latent, db_latent, dx)`` with ``dx``
    the node-major ``(P, B·C)`` input gradient (``None`` unless
    ``need_dx``)."""
    xs, t = cache
    p, batch, c = xs.shape
    k = t.shape[-1]
    rank = w_latent.shape[1]
    rows = p * batch
    bk = batch * k
    dtype = t.dtype
    gz = _scratch((rank, _padded(bk)), dtype, pad_from=bk)
    gz_rows = gz[:, :bk]
    np.copyto(_view(gz_rows, (rank, batch, k)), np.swapaxes(grad, 0, 1))
    dw_latent = np.matmul(_view(t, (p, bk)), gz_rows.T)
    db_latent = np.add.reduce(gz_rows, axis=-1)
    dt_pad = np.matmul(w_latent, gz)
    dt = _row_buffer(rows, k, dtype)
    np.copyto(_view(dt[:rows], (p, bk)), dt_pad[:, :bk])
    x_rows = _view(xs, (rows, c))
    dw_buckets = np.matmul(x_rows.T, dt[:rows])
    db_buckets = np.matmul(np.ones(rows, dtype=dtype), dt[:rows])
    dx = None
    if need_dx:
        dx = _row_buffer(rows, c, dtype)
        _tile_matmul(dt, w_buckets.T, dx)
        dx = _view(dx[:rows], (p, batch * c))
    return dw_buckets, db_buckets, dw_latent, db_latent, dx


# ----------------------------------------------------------------------
# Fused GRU cell (gates of paper §IV-C / Eqs. 7-10 gate structure)
# ----------------------------------------------------------------------
def fused_gru_gates(x: Tensor, h: Tensor,
                    w_reset: Tensor, b_reset: Tensor,
                    w_update: Tensor, b_update: Tensor,
                    w_cand: Tensor, b_cand: Tensor) -> Tensor:
    """Whole dense GRU cell update as one graph node.

    Computes ``r = σ([h,x] W_r + b_r)``, ``u = σ([h,x] W_u + b_u)``,
    ``c = tanh([r·h, x] W_c + b_c)``, ``h' = u·h + (1-u)·c`` — the
    concatenations, three matmuls, biases, nonlinearities and the state
    blend — with a single hand-written backward.  ``x`` is
    ``(..., input)``, ``h`` is ``(..., hidden)``.
    """
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    params = (w_reset, b_reset, w_update, b_update, w_cand, b_cand)
    hidden = h.shape[-1]
    wr = wu = wc = None
    hx = r = u = rhx = c = None

    def run() -> np.ndarray:
        nonlocal wr, wu, wc, hx, r, u, rhx, c
        wr, br, wu, bu, wc, bc = (p.data for p in params)
        hx = np.concatenate([h.data, x.data], axis=-1)
        r = _stable_sigmoid(hx @ wr + br)
        u = _stable_sigmoid(hx @ wu + bu)
        rhx = np.concatenate([r * h.data, x.data], axis=-1)
        c = np.tanh(rhx @ wc + bc)
        return u * h.data + (1.0 - u) * c

    def backward(grad: np.ndarray) -> None:
        joint = hx.shape[-1]
        # Blend: h' = u*h + (1-u)*c.
        dpre_c = (grad * (1.0 - u)) * (1.0 - c * c)         # tanh'
        dh = grad * u
        dpre_u = (grad * (h.data - c)) * u * (1.0 - u)      # sigmoid'
        # Candidate branch through rhx = [r*h, x].
        drhx = dpre_c @ wc.T
        drh = drhx[..., :hidden]
        dpre_r = (drh * h.data) * r * (1.0 - r)
        dh += drh * r
        # Gate branch through hx = [h, x].
        dhx = dpre_r @ wr.T
        dhx += dpre_u @ wu.T
        if h.requires_grad:
            h._accumulate(dh + dhx[..., :hidden])
        if x.requires_grad:
            x._accumulate(drhx[..., hidden:] + dhx[..., hidden:])
        if any(p.requires_grad for p in params):
            # Weight gradients flatten leading dims into one GEMM each.
            hx2 = hx.reshape(-1, joint)
            rhx2 = rhx.reshape(-1, joint)
            lead = tuple(range(grad.ndim - 1))
            if w_reset.requires_grad:
                w_reset._accumulate(hx2.T @ dpre_r.reshape(-1, hidden))
            if b_reset.requires_grad:
                b_reset._accumulate(dpre_r.sum(axis=lead))
            if w_update.requires_grad:
                w_update._accumulate(hx2.T @ dpre_u.reshape(-1, hidden))
            if b_update.requires_grad:
                b_update._accumulate(dpre_u.sum(axis=lead))
            if w_cand.requires_grad:
                w_cand._accumulate(rhx2.T @ dpre_c.reshape(-1, hidden))
            if b_cand.requires_grad:
                b_cand._accumulate(dpre_c.sum(axis=lead))

    return Tensor._make(run, (x, h) + params, backward)


# ----------------------------------------------------------------------
# Whole CNRNN cell (paper Eqs. 7-10)
# ----------------------------------------------------------------------
def fused_cnrnn_cell(lap: Union[Tensor, np.ndarray], x: Tensor, h: Tensor,
                     w_reset: Tensor, b_reset: Tensor,
                     w_update: Tensor, b_update: Tensor,
                     w_cand: Tensor, b_cand: Tensor, order: int) -> Tensor:
    """One graph-convolutional GRU step (Eqs. 7-10) as a single node.

    The graph analog of :func:`fused_gru_gates`: the concatenations, the
    three gate *graph convolutions* (all on the same Laplacian, so the
    reset/update mixes share one GEMM against the horizontally stacked
    weights), the nonlinearities, and the Eq. 10 state blend all run in
    raw numpy with one hand-written backward.  ``x (B, N, C_in)``,
    ``h (B, N, H)`` → ``(B, N, H)``.
    """
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    params = (w_reset, b_reset, w_update, b_update, w_cand, b_cand)
    lap_data = lap.data if isinstance(lap, Tensor) else np.asarray(lap)
    batch, n, cx = x.shape
    hidden = h.shape[-1]
    joint = hidden + cx
    lap_t = lap_data.T
    hx = f_hx = w_ru = ru = r = u = rhx = f_rhx = c = hmc = None

    def run() -> np.ndarray:
        nonlocal hx, f_hx, w_ru, ru, r, u, rhx, f_rhx, c, hmc
        hx = np.concatenate([h.data, x.data], axis=-1)
        f_hx = _cheb_feats(_cheb_terms(lap_data, hx, order), order)
        w_ru = np.concatenate([w_reset.data, w_update.data], axis=1)
        b_ru = np.concatenate([b_reset.data, b_update.data])
        pre_ru = f_hx @ w_ru                            # (B*N, 2H)
        ru = _stable_sigmoid(pre_ru.reshape(batch, n, 2 * hidden) + b_ru)
        r, u = ru[..., :hidden], ru[..., hidden:]
        rhx = np.concatenate([r * h.data, x.data], axis=-1)
        f_rhx = _cheb_feats(_cheb_terms(lap_data, rhx, order), order)
        c = np.tanh((f_rhx @ w_cand.data)
                    .reshape(batch, n, hidden) + b_cand.data)
        hmc = h.data - c
        return c + u * hmc                              # Eq. 10 blend

    def backward(grad: np.ndarray) -> None:
        # Eq. 10 blend and the two nonlinearities (σ' for both gates in
        # one pass over the joined r|u block).
        dh = grad * u
        dpre_c = (grad - dh) * (1.0 - c * c)
        dru = ru * (1.0 - ru)
        dpre_u = (grad * hmc) * dru[..., hidden:]
        # Candidate convolution adjoint (through rhx = [r·h, x]).
        dpre_c_flat = dpre_c.reshape(batch * n, hidden)
        if w_cand.requires_grad:
            w_cand._accumulate(f_rhx.T @ dpre_c_flat)
        if b_cand.requires_grad:
            b_cand._accumulate(dpre_c_flat.sum(axis=0))
        drhx = _cheb_adjoint(lap_t, dpre_c_flat, w_cand.data,
                             (batch, n, joint), order)
        drh = drhx[..., :hidden]
        dpre_r = (drh * h.data) * dru[..., :hidden]
        dh += drh * r
        # Gate convolutions' adjoint (shared GEMMs through hx = [h, x]).
        dpre_ru_flat = np.concatenate(
            [dpre_r.reshape(batch * n, hidden),
             dpre_u.reshape(batch * n, hidden)], axis=1)
        if w_reset.requires_grad or w_update.requires_grad:
            dw_ru = f_hx.T @ dpre_ru_flat
            if w_reset.requires_grad:
                w_reset._accumulate(dw_ru[:, :hidden])
            if w_update.requires_grad:
                w_update._accumulate(dw_ru[:, hidden:])
        if b_reset.requires_grad or b_update.requires_grad:
            db_ru = dpre_ru_flat.sum(axis=0)
            if b_reset.requires_grad:
                b_reset._accumulate(db_ru[:hidden])
            if b_update.requires_grad:
                b_update._accumulate(db_ru[hidden:])
        dhx = _cheb_adjoint(lap_t, dpre_ru_flat, w_ru,
                            (batch, n, joint), order)
        if h.requires_grad:
            h._accumulate(dh + dhx[..., :hidden])
        if x.requires_grad:
            x._accumulate(drhx[..., hidden:] + dhx[..., hidden:])

    return Tensor._make(run, (x, h) + params, backward)


# ----------------------------------------------------------------------
# Masked Frobenius loss (paper Eq. 4's data term)
# ----------------------------------------------------------------------
def fused_masked_frobenius(prediction: Tensor, truth: np.ndarray,
                           mask: np.ndarray) -> Tensor:
    """``Σ ((pred - truth)·Ω)² / |Ω|`` as one node.

    ``truth`` matches ``prediction (..., N, N', K)``; ``mask`` is the
    indication tensor ``(..., N, N')``, broadcast over buckets.  The
    normalizer is the observed-cell count (≥ 1), keeping the loss scale
    independent of sparsity.
    """
    prediction = _ensure_tensor(prediction)
    dtype = prediction.data.dtype
    mask_arr = np.asarray(mask, dtype=dtype)
    truth_arr = np.asarray(truth, dtype=dtype)
    weights = mask_arr[..., None]
    diff = None
    observed = None

    def run() -> np.ndarray:
        nonlocal diff, observed
        diff = (prediction.data - truth_arr) * weights
        observed = max(float(mask_arr.sum()), 1.0)
        return np.asarray((diff * diff).sum() / observed, dtype=dtype)

    def backward(grad: np.ndarray) -> None:
        if prediction.requires_grad:
            # d/dpred of (w·(pred-truth))² is 2 w²(pred-truth) = 2 w·diff.
            # _unbroadcast folds the gradient back onto prediction's
            # shape when truth/mask broadcast against it.
            prediction._accumulate(_unbroadcast(
                (float(grad) * 2.0 / observed) * diff * weights,
                prediction.shape))

    return Tensor._make(run, (prediction,), backward)

