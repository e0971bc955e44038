"""Primitive-op oracles for the fused kernels.

Every fused op in :mod:`repro.autodiff.ops` evaluates a whole
sub-expression as one graph node with a hand-written adjoint.  The
functions here write the same math with the primitive ops, whose
adjoints autodiff derives one op at a time; they are the ground truth of
the parity tests.  Each takes the same arguments as the kernel it
checks; :func:`cheb_conv`, the Cheby-Net convolution, is the block the
graph oracles share.

:func:`install` routes a model through these compositions: it patches
each public fused entry point under the name its caller looks it up by,
and sends the AF's stage 1 through :func:`factorize_tensor_batch`, the
primitive factorizer composition.  ``tests/conftest.py`` exposes it as the
``oracle_kernels`` fixture.
"""

from __future__ import annotations

import numpy as np

import repro.core.af as _af
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, _ensure_tensor


def _cheb_terms(lap, x: Tensor, order: int) -> Tensor:
    """All ``order`` Chebyshev terms of ``x (N, M)`` stacked on a new
    trailing axis: ``T_0 = x``, ``T_1 = L x``,
    ``T_s = 2 L T_{s-1} - T_{s-2}``."""
    if order < 1:
        raise ValueError(f"Chebyshev order must be >= 1, got {order}")
    lap = lap if isinstance(lap, Tensor) else Tensor(np.asarray(lap))
    terms = [x]
    if order > 1:
        terms.append(lap.matmul(x))
    for _ in range(2, order):
        terms.append(2.0 * lap.matmul(terms[-1]) - terms[-2])
    return ops.stack(terms, axis=-1)


def cheb_conv(lap, x: Tensor, weight: Tensor, bias: Tensor,
              order: int) -> Tensor:
    """Cheby-Net convolution (Eq. 5), as ``ChebConv.forward`` runs it."""
    x = _ensure_tensor(x)
    batch, n, channels = x.shape
    flat = x.transpose((1, 0, 2)).reshape(n, batch * channels)
    features = _cheb_terms(lap, flat, order).reshape(
        n * batch, channels * order)
    mixed = features.matmul(weight)
    out = mixed.reshape(n, batch, weight.shape[-1])
    return out.transpose((1, 0, 2)) + bias


def fused_gcnn_stage(lap, x: Tensor, weight: Tensor, bias: Tensor,
                     order: int, stride: int = 1, perm: np.ndarray = None,
                     inv_counts: np.ndarray = None) -> Tensor:
    """Conv, ReLU, pad-and-permute into cluster order, cluster mean."""
    y = ops.relu(cheb_conv(lap, x, weight, bias, order))
    if perm is not None:
        y = ops.pad_axis(y, 1, 0, perm.size - y.shape[1])
        y = ops.take_axis(y, np.asarray(perm, dtype=np.intp), 1)
    if stride > 1:
        y = ops.mean_pool_axis(y, 1, stride)
        y = y * (np.asarray(inv_counts) * stride).reshape(1, -1, 1)
    return y


def fused_latent_head(x: Tensor, w_buckets: Tensor, b_buckets: Tensor,
                      w_latent: Tensor, b_latent: Tensor) -> Tensor:
    """Bucket projection, transpose, cluster→rank projection, transpose."""
    x = _ensure_tensor(x)
    t = x.matmul(w_buckets) + b_buckets
    t = t.transpose((0, 2, 1))
    z = t.matmul(w_latent) + b_latent
    return z.transpose((0, 2, 1))


def fused_gru_gates(x: Tensor, h: Tensor,
                    w_reset: Tensor, b_reset: Tensor,
                    w_update: Tensor, b_update: Tensor,
                    w_cand: Tensor, b_cand: Tensor) -> Tensor:
    """Dense GRU cell update."""
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    hx = ops.concat([h, x], axis=-1)
    reset = ops.sigmoid(hx.matmul(w_reset) + b_reset)
    update = ops.sigmoid(hx.matmul(w_update) + b_update)
    rhx = ops.concat([reset * h, x], axis=-1)
    candidate = ops.tanh(rhx.matmul(w_cand) + b_cand)
    return update * h + (1.0 - update) * candidate


def fused_cnrnn_cell(lap, x: Tensor, h: Tensor,
                     w_reset: Tensor, b_reset: Tensor,
                     w_update: Tensor, b_update: Tensor,
                     w_cand: Tensor, b_cand: Tensor, order: int) -> Tensor:
    """Graph-convolutional GRU step (Eqs. 7-10)."""
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    hx = ops.concat([h, x], axis=-1)
    reset = ops.sigmoid(cheb_conv(lap, hx, w_reset, b_reset, order))
    update = ops.sigmoid(cheb_conv(lap, hx, w_update, b_update, order))
    rhx = ops.concat([reset * h, x], axis=-1)
    candidate = ops.tanh(cheb_conv(lap, rhx, w_cand, b_cand, order))
    return update * h + (1.0 - update) * candidate


def fused_masked_frobenius(prediction: Tensor, truth: np.ndarray,
                           mask: np.ndarray) -> Tensor:
    """``Σ ((pred - truth)·Ω)² / |Ω|``."""
    prediction = _ensure_tensor(prediction)
    mask = np.asarray(mask, dtype=np.float64)
    weights = Tensor(mask[..., None])
    diff = (prediction - Tensor(np.asarray(truth))) * weights
    observed = max(float(mask.sum()), 1.0)
    return (diff * diff).sum() * (1.0 / observed)


def spatial_factorizer(factorizer, slices: Tensor) -> Tensor:
    """A :class:`repro.core.spatial.SpatialFactorizer` forward written
    with layers: each stage's ChebConv, ReLU and :class:`GraphPool`,
    then the two linear projections.  ``(B*, nodes, K)`` →
    ``(B*, rank, K)``."""
    x = slices
    for conv, pool in zip(factorizer.convs, factorizer.pools):
        x = ops.relu(conv(x))
        if pool is not None:
            x = pool(x)
    x = factorizer.to_buckets(x)                # (B*, beta', K)
    x = x.transpose((0, 2, 1))                  # (B*, K, beta')
    x = factorizer.latent_proj(x)               # (B*, K, rank)
    return x.transpose((0, 2, 1))               # (B*, rank, K)


def factorize_tensor_batch(factorizer_r, factorizer_c, tensors: Tensor,
                           execution=None):
    """:func:`repro.core.spatial.factorize_tensor_batch` on the primitive
    factorizer: origin slices ``(B·N, N', K)`` over the destination
    graph, destination slices ``(B·N', N, K)`` over the origin graph."""
    if execution is not None:
        raise ValueError("the oracle factorizer has no sharded path")
    batch, n_origins, n_dests, k = tensors.shape
    r_slices = tensors.reshape(batch * n_origins, n_dests, k)
    c_slices = tensors.transpose((0, 2, 1, 3)) \
        .reshape(batch * n_dests, n_origins, k)
    r = spatial_factorizer(factorizer_r, r_slices).reshape(
        batch, n_origins, factorizer_r.rank, k)
    c = spatial_factorizer(factorizer_c, c_slices).reshape(
        batch, n_dests, factorizer_c.rank, k)
    return r, c.transpose((0, 2, 1, 3))         # (B, β, N', K)


#: The fused entry points of :mod:`repro.autodiff.ops` that have an
#: oracle here under the same name.  ``fused_gcnn_stage`` and
#: ``fused_latent_head`` are references for the stage-1 kernels
#: (``ops._gcnn_stage_*``/``_latent_head_*``), which have no public op.
OPS_KERNELS = ("fused_gru_gates", "fused_cnrnn_cell",
               "fused_masked_frobenius")


def install(monkeypatch) -> None:
    """Route every fused kernel, and the AF's stage 1, through the
    oracles for the rest of a test (``monkeypatch`` undoes it)."""
    for name in OPS_KERNELS:
        monkeypatch.setattr(ops, name, globals()[name])
    monkeypatch.setattr(_af, "factorize_tensor_batch",
                        factorize_tensor_batch)
