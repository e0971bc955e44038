"""Bit-exactness of the node-major Chebyshev recursion.

The shared Cheby-Net helpers in :mod:`repro.autodiff.ops`
(``_cheb_terms``, ``_cheb_feats``, ``_cheb_adjoint``) run the recursion
node-major: one Laplacian GEMM per term against every slice's columns
at once.

Exact-mode sharding (dense ≡ sharded) and the blocked forward run a
shard's slices through the same helpers the dense path runs on all
slices, and must agree **bit for bit**.  That
needs a slice's result not to depend on which other slices share its
GEMM.  On OpenBLAS this does not hold for an arbitrary column count: a
column in a partial micro-kernel tile, or a call small enough for the
small-matrix kernel, accumulates in another order.  The helpers
therefore pad the column count to full tiles.  The tests below pin the
invariance with ``np.array_equal`` on every shape; they fail loudly if a
BLAS or numpy change breaks it.

The per-slice broadcast ``np.matmul`` formulation the helpers replaced
is kept here, written out, as the oracle.  Node-major agrees with it to
round-off, not bitwise, because a one-channel slice goes through GEMV
and narrow slices through partial tiles, which the padded GEMM never
uses; order 1 and term 0, which involve no Laplacian GEMM, must match
it exactly.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, set_default_dtype
from repro.autodiff.ops import (_Pool, _cheb_adjoint, _cheb_feats,
                                _cheb_terms, _gcnn_stage_backward,
                                _gcnn_stage_forward, _latent_head_backward,
                                _latent_head_forward, _node_major,
                                _slice_major)
from tests import oracles


# ----------------------------------------------------------------------
# Oracle: the per-slice broadcast np.matmul formulation
# ----------------------------------------------------------------------
def _oracle_terms(lap, signal, order):
    terms = [signal]
    if order > 1:
        terms.append(np.matmul(lap, signal))
    for _ in range(2, order):
        t = np.matmul(lap, terms[-1])
        t *= 2.0
        t -= terms[-2]
        terms.append(t)
    return terms


def _oracle_feats(terms, order):
    shape = terms[0].shape
    c = shape[-1]
    rows = shape[:-3] + (shape[-3] * shape[-2],)
    out = np.empty(shape + (order,), dtype=terms[0].dtype)
    for s, term in enumerate(terms):
        out[..., s] = term
    return out.reshape(rows + (c * order,))


def _oracle_adjoint(lap_t, dmixed, weight, shape, order):
    dfull = np.matmul(dmixed, np.swapaxes(weight, -1, -2)).reshape(
        shape + (order,))
    if order == 1:
        return dfull[..., 0]
    adj = [np.ascontiguousarray(dfull[..., s]) for s in range(order)]
    for s in range(order - 1, 1, -1):
        adj[s - 1] += 2.0 * np.matmul(lap_t, adj[s])
        adj[s - 2] -= adj[s]
    adj[0] += np.matmul(lap_t, adj[1])
    return adj[0]


# ----------------------------------------------------------------------
# Inputs shaped like the kernels' call sites
# ----------------------------------------------------------------------
Q = 3
ORDERS = [1, 2, 3, 4]
SHAPES = [            # (N, slices, channels)
    (1, 1, 1), (1, 40, 3),
    (67, 1, 1), (67, 1, 7), (67, 12, 1), (67, 23, 3), (67, 19, 7),
    (300, 1, 2), (300, 9, 3), (300, 14, 32),
]
DTYPES = [np.float64, np.float32]


def _case(stacked, n, batch, channels, order, dtype, seed=0):
    """``(lap, lap_t, signal, weight, dmixed)`` as a call site builds
    them, with a plain ``(N, N)`` Laplacian and ``lap_t`` a transposed
    view.  A stacked case draws two such problems on a leading axis (two
    graphs, as the AF's two factorizer sides have; the Laplacians as
    ``(2, 1, N, N)`` so the oracle broadcasts them over the slices), and
    the helpers run each problem in its own call (:func:`_restack`)."""
    rng = np.random.default_rng(seed)
    lead = (2,) if stacked else ()
    # Deliberately non-symmetric so the adjoint really uses Lᵀ.
    lap = rng.uniform(-1.0, 1.0, size=lead + (n, n)).astype(dtype)
    if stacked:
        lap = lap[:, None]
    lap_t = np.swapaxes(lap, -1, -2)
    signal = rng.standard_normal(lead + (batch, n, channels)).astype(dtype)
    # Small integers make the adjoint's seed GEMM dmixed·Wᵀ exact under
    # any summation order.  That GEMM is row-partitioned like every mix
    # GEMM and the same as the oracle's; with an exact seed the checks
    # isolate the Laplacian recursion.
    weight = rng.integers(-4, 5, size=lead + (channels * order, Q)) \
        .astype(dtype)
    dmixed = rng.integers(-4, 5, size=lead + (batch * n, Q)).astype(dtype)
    return lap, lap_t, signal, weight, dmixed


def _restack(runs):
    """Per-problem results (arrays, or tuples/lists of them) stacked on a
    new leading axis, the layout of a stacked case's inputs."""
    first = runs[0]
    if isinstance(first, (tuple, list)):
        return type(first)(_restack(parts) for parts in zip(*runs))
    return np.stack(runs)


def _helpers(lap, lap_t, signal, weight, dmixed, order):
    if signal.ndim == 4:
        return _restack([
            _helpers(*problem, order) for problem in
            zip(lap[:, 0], lap_t[:, 0], signal, weight, dmixed)])
    terms = _cheb_terms(lap, signal, order)
    assert len(terms) == order
    feats = _cheb_feats(terms, order)
    adjoint = _cheb_adjoint(lap_t, dmixed, weight, signal.shape, order)
    return terms, feats, adjoint


def _oracle(lap, lap_t, signal, weight, dmixed, order):
    terms = _oracle_terms(lap, signal, order)
    return (terms, _oracle_feats(terms, order),
            _oracle_adjoint(lap_t, dmixed, weight, signal.shape, order))


def _subsets(batch, seed):
    rng = np.random.default_rng(seed)
    picks = [np.array([0]), np.array([batch - 1]),
             np.arange(0, batch, 3), np.arange(batch // 3, batch)]
    if batch > 2:
        picks.append(np.sort(rng.choice(batch, size=batch // 2 + 1,
                                        replace=False)))
    return picks


def _assert_bit_equal(got, want, what):
    assert got.shape == want.shape, (what, got.shape, want.shape)
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert np.array_equal(got, want), (
        f"{what}: not bit-identical (max abs diff "
        f"{np.max(np.abs(got - want))}); exact-mode sharding, the blocked "
        f"forward and the engine parity gates depend on this")


def _check_partition(lap, lap_t, signal, weight, dmixed, order):
    """Running any subset of slices gives the full run's rows exactly."""
    n = signal.shape[-2]
    batch = signal.shape[-3]
    lead = signal.shape[:-3]
    full_terms, full_feats, full_adj = _helpers(
        lap, lap_t, signal, weight, dmixed, order)
    full_feats = full_feats.reshape(lead + (batch, n, -1))
    full_dm = dmixed.reshape(lead + (batch, n, Q))
    for pick in _subsets(batch, seed=n + batch):
        sub_dm = full_dm[..., pick, :, :].reshape(lead + (-1, Q))
        terms, feats, adj = _helpers(
            lap, lap_t, signal[..., pick, :, :], weight, sub_dm, order)
        what = f"slices {pick.tolist()} of {batch}"
        for s in range(order):
            _assert_bit_equal(terms[s], full_terms[s][..., pick, :, :],
                              f"term {s}, {what}")
        _assert_bit_equal(feats.reshape(lead + (pick.size, n, -1)),
                          full_feats[..., pick, :, :],
                          f"feature rows, {what}")
        _assert_bit_equal(adj, full_adj[..., pick, :, :],
                          f"adjoint, {what}")


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("stacked", [False, True],
                         ids=["plain", "stacked"])
@pytest.mark.parametrize("n,batch,channels", SHAPES)
@pytest.mark.parametrize("order", ORDERS)
def test_slice_result_independent_of_batch_partners(
        order, n, batch, channels, stacked, dtype):
    _check_partition(*_case(stacked, n, batch, channels, order, dtype),
                     order)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("stacked", [False, True],
                         ids=["plain", "stacked"])
@pytest.mark.parametrize("n,batch,channels", SHAPES)
@pytest.mark.parametrize("order", ORDERS)
def test_matches_per_slice_oracle(order, n, batch, channels, stacked,
                                  dtype):
    case = _case(stacked, n, batch, channels, order, dtype)
    got = _helpers(*case, order)
    want = _oracle(*case, order)
    if order == 1:
        for s in range(order):
            _assert_bit_equal(got[0][s], want[0][s], f"term {s}")
        _assert_bit_equal(got[1], want[1], "feature matrix")
        _assert_bit_equal(got[2], want[2], "adjoint")
        return
    # Another summation order.  |T_s| grows like
    # (2·max|L|·N)^s on these dense random Laplacians, so the tolerance
    # is relative to each result's scale, set from the dtype.
    rtol = 1e-12 if dtype == np.float64 else 2e-5
    pairs = [(f"term {s}", got[0][s], want[0][s]) for s in range(order)]
    pairs += [("feature matrix", got[1], want[1]),
              ("adjoint", got[2], want[2])]
    for what, g, w in pairs:
        assert g.shape == w.shape and g.dtype == w.dtype, what
        scale = max(float(np.max(np.abs(w))), 1.0)
        np.testing.assert_allclose(g, w, rtol=0, atol=rtol * scale,
                                   err_msg=what)
    # Term 0 is the signal itself: always exact.
    _assert_bit_equal(got[0][0], want[0][0], "term 0")


@pytest.mark.parametrize("stacked", [False, True],
                         ids=["plain", "stacked"])
@pytest.mark.parametrize("order", [1, 3, 4])
def test_non_contiguous_signal(order, stacked):
    lap, lap_t, _, weight, dmixed = _case(
        stacked, 67, 6, 4, order, np.float64, seed=1)
    rng = np.random.default_rng(2)
    lead = (2,) if stacked else ()
    # A (…, B, N, C) view of a node-major buffer with a channel stride.
    base = rng.standard_normal(lead + (67, 6, 8))
    signal = np.swapaxes(base, -3, -2)[..., ::2]
    assert not signal.flags.c_contiguous
    before = base.copy()
    got = _helpers(lap, lap_t, signal, weight, dmixed, order)
    want = _helpers(lap, lap_t, np.ascontiguousarray(signal), weight,
                    dmixed, order)
    for s in range(order):
        _assert_bit_equal(got[0][s], want[0][s], f"term {s}")
    _assert_bit_equal(got[1], want[1], "feature matrix")
    _assert_bit_equal(got[2], want[2], "adjoint")
    assert np.array_equal(base, before)     # input never written
    _check_partition(lap, lap_t, signal, weight, dmixed, order)


# ----------------------------------------------------------------------
# The node-major factorizer kernels: stage forward/backward and the
# latent head (ops._gcnn_stage_forward/_backward, _latent_head_*)
# ----------------------------------------------------------------------
# Every per-slice result of the factorizer — a stage's pooled output,
# its feature and activation caches, the input gradient, the latent
# head's output — must be bit-identical whether the slice runs with all
# others (dense) or with any subset (a shard).  The channel mixes and
# head projections run in full _ROW_TILE-row GEMMs and the Laplacian
# GEMMs over full column tiles; these tests pin both on shapes that
# straddle the tiles.
STAGE_SHAPES = [      # (N, slices, channels, filters): B·C on/off 32
    (1, 8, 4, 3), (1, 5, 3, 2),
    (67, 8, 4, 16), (67, 9, 7, 16), (67, 2, 16, 8), (67, 5, 16, 3),
    (300, 9, 7, 5), (300, 4, 8, 3),
]
# Plain pair pooling needs an even node count.
STAGE_CASES = [shape + (kind,) for shape in STAGE_SHAPES
               for kind in ("none", "stride", "perm")
               if kind != "stride" or shape[0] % 2 == 0]


def _pooling(kind, n, rng):
    """``(stride, perm, inv_counts)`` of a pooling layout on ``n``
    nodes: none, plain pairs (n even), or a padded permutation with fake
    nodes, as a coarsening builds."""
    if kind == "none":
        return 1, None, None
    if kind == "stride":
        return 2, None, np.full(n // 2, 0.5)
    fake = 3 if n % 2 else 2
    perm = rng.permutation(n + fake).astype(np.intp)
    real = (perm < n).reshape(-1, 2).sum(axis=1)
    inv = np.where(real > 0, 1.0 / np.maximum(real, 1), 0.0)
    return 2, perm, inv


def _stage_case(n, batch, c, q, order, kind, stacked, dtype, seed=0):
    rng = np.random.default_rng(seed)
    stride, perm, inv = _pooling(kind, n, rng)
    lead = (2,) if stacked else ()
    lap = (rng.uniform(-1.0, 1.0, size=lead + (n, n))
           / np.sqrt(n)).astype(dtype)
    signal = rng.standard_normal(lead + (batch, n, c)).astype(dtype)
    weight = (rng.standard_normal(lead + (c * order, q)) / c).astype(dtype)
    bias = (rng.standard_normal(lead + (q,)) * 0.1).astype(dtype)
    pool = _Pool(n, stride, perm, inv, dtype)
    grad = rng.standard_normal(lead + (batch, pool.size, q)).astype(dtype)
    return dict(lap=lap, signal=signal, weight=weight, bias=bias,
                pool=pool, grad=grad, order=order,
                spec=dict(stride=stride, perm=perm, inv_counts=inv))


def _run_stage(case, pick=None):
    """Output (slice-major), caches, input gradient and weight and bias
    gradients of the slices in ``pick`` (all by default)."""
    if case["signal"].ndim == 4:
        return _restack([
            _run_stage(dict(case, lap=lap, signal=signal, weight=weight,
                            bias=bias, grad=grad), pick)
            for lap, signal, weight, bias, grad in zip(
                case["lap"], case["signal"], case["weight"], case["bias"],
                case["grad"])])
    signal, grad = case["signal"], case["grad"]
    if pick is not None:
        signal = signal[..., pick, :, :]
        grad = grad[..., pick, :, :]
    batch, q = signal.shape[-3], case["weight"].shape[-1]
    out, cache = _gcnn_stage_forward(
        case["lap"], _node_major(signal), case["weight"], case["bias"],
        case["order"], batch, case["pool"])
    lap_t = np.swapaxes(case["lap"], -1, -2)
    dweight, dbias, dx = _gcnn_stage_backward(
        _node_major(grad), cache, lap_t, case["weight"], case["pool"])
    c = signal.shape[-1]
    return (np.array(_slice_major(out, batch, q)), cache,
            np.array(_slice_major(dx, batch, c)), dweight, dbias)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("stacked", [False, True],
                         ids=["plain", "stacked"])
@pytest.mark.parametrize("n,batch,c,q,kind", STAGE_CASES)
def test_stage_slices_independent_of_batch_partners(n, batch, c, q, kind,
                                                    stacked, dtype):
    case = _stage_case(n, batch, c, q, 3, kind, stacked, dtype)
    out, cache, dx = _run_stage(case)[:3]
    for pick in _subsets(batch, seed=n + batch):
        sub_out, sub_cache, sub_dx = _run_stage(case, pick)[:3]
        what = f"slices {pick.tolist()} of {batch}"
        _assert_bit_equal(sub_out, out[..., pick, :, :], f"output, {what}")
        for index, (got, full) in enumerate(zip(sub_cache, cache)):
            _assert_bit_equal(got, full[..., pick, :],
                              f"cache {index}, {what}")
        _assert_bit_equal(sub_dx, dx[..., pick, :, :],
                          f"input gradient, {what}")


def _tolerance(dtype):
    return 1e-12 if dtype == np.float64 else 2e-5


def _assert_close(got, want, dtype, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    scale = max(float(np.max(np.abs(want))), 1.0)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=_tolerance(dtype) * scale, err_msg=what)


def _oracle_grads(op, arrays, grad, dtype):
    """Output and input gradients of an oracle under ``grad``."""
    previous = set_default_dtype(dtype)
    try:
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*tensors)
        out.backward(grad=grad)
        return out.data, [t.grad for t in tensors]
    finally:
        set_default_dtype(previous)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("n,batch,c,q,kind", STAGE_CASES)
def test_stage_matches_reference(n, batch, c, q, kind, dtype):
    case = _stage_case(n, batch, c, q, 3, kind, False, dtype, seed=1)
    out, _, *grads = _run_stage(case)
    ref_out, ref_grads = _oracle_grads(
        lambda x, w, b: oracles.fused_gcnn_stage(case["lap"], x, w, b, 3,
                                                 **case["spec"]),
        [case["signal"], case["weight"], case["bias"]], case["grad"],
        dtype)
    _assert_close(out, ref_out, dtype, "output")
    for name, got, want in zip(("x", "weight", "bias"), grads, ref_grads):
        _assert_close(got, want, dtype, f"{name} gradient")


HEAD_SHAPES = [       # (P, slices, channels, buckets, rank)
    (1, 8, 4, 4, 3), (17, 9, 8, 7, 12), (17, 4, 8, 8, 5),
    (75, 40, 7, 3, 4),
]


def _head_case(p, batch, c, k, rank, stacked, dtype, seed=0):
    rng = np.random.default_rng(seed)
    lead = (2,) if stacked else ()

    def draw(*shape):
        return rng.standard_normal(lead + shape).astype(dtype)

    return dict(x=draw(batch, p, c), w_buckets=draw(c, k),
                b_buckets=draw(k), w_latent=draw(p, rank),
                b_latent=draw(rank), grad=draw(batch, rank, k))


def _run_head(case, pick=None):
    """Output, caches, input gradient and parameter gradients of the
    slices in ``pick`` (all by default)."""
    if case["x"].ndim == 4:
        return _restack([
            _run_head(dict(zip(case, problem)), pick)
            for problem in zip(*case.values())])
    x, grad = case["x"], case["grad"]
    if pick is not None:
        x, grad = x[..., pick, :, :], grad[..., pick, :, :]
    batch, c = x.shape[-3], x.shape[-1]
    out, cache = _latent_head_forward(
        _node_major(x), case["w_buckets"], case["b_buckets"],
        case["w_latent"], case["b_latent"], batch)
    *grads, dx = _latent_head_backward(grad, cache, case["w_buckets"],
                                       case["w_latent"])
    return (out, cache, np.array(_slice_major(dx, batch, c))) \
        + tuple(grads)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("stacked", [False, True],
                         ids=["plain", "stacked"])
@pytest.mark.parametrize("p,batch,c,k,rank", HEAD_SHAPES)
def test_head_slices_independent_of_batch_partners(p, batch, c, k, rank,
                                                   stacked, dtype):
    case = _head_case(p, batch, c, k, rank, stacked, dtype)
    out, cache, dx = _run_head(case)[:3]
    for pick in _subsets(batch, seed=p + batch):
        sub_out, sub_cache, sub_dx = _run_head(case, pick)[:3]
        what = f"slices {pick.tolist()} of {batch}"
        _assert_bit_equal(sub_out, out[..., pick, :, :], f"output, {what}")
        for index, (got, full) in enumerate(zip(sub_cache, cache)):
            _assert_bit_equal(got, full[..., pick, :],
                              f"cache {index}, {what}")
        _assert_bit_equal(sub_dx, dx[..., pick, :, :],
                          f"input gradient, {what}")


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("p,batch,c,k,rank", HEAD_SHAPES)
def test_head_matches_reference(p, batch, c, k, rank, dtype):
    case = _head_case(p, batch, c, k, rank, False, dtype, seed=2)
    arrays = [case[name] for name in ("x", "w_buckets", "b_buckets",
                                      "w_latent", "b_latent")]
    out, _, *grads = _run_head(case)
    ref_out, ref_grads = _oracle_grads(oracles.fused_latent_head, arrays,
                                       case["grad"], dtype)
    _assert_close(out, ref_out, dtype, "output")
    for index, (got, want) in enumerate(zip(grads, ref_grads)):
        _assert_close(got, want, dtype, f"gradient {index}")
