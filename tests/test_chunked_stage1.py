"""Chunk invariance and the empty-slice fold of the AF's stage 1
(``repro.core.shardexec``).

Each factorizer side runs its slices in chunks sized by
``shardexec._CHUNK_BYTES``.  The chunking must not show in what the
model computes: forward factors and input gradients are bit-identical
at every chunk size (a slice's GEMMs never see its chunk partners), and
weight gradients are per-chunk partials summed in fixed chunk order
(deterministic, and equal to one run per side up to round-off).

A side whose input needs no gradient also folds its empty slices onto
the first of them, so the chunk schedule depends on occupancy.  The
fold must not show either: factors are bit-identical to the run of
every slice (an input that requires a gradient is never folded), weight
gradients equal it up to round-off, and exact sharding stays bitwise
equal to dense.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import (AdvancedFramework, ShardedExecution,
                        factorize_tensor_batch)
from repro.core import shardexec
from repro.graph import plan_shards

K = 7
INTERVALS = 2
CITIES = {"square": (30, 30), "non-square": (30, 24)}


def _proximity(n, rng):
    w = rng.uniform(0.1, 1.0, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _city(name):
    n_origins, n_dests = CITIES[name]
    rng = np.random.default_rng(n_origins)
    w_o = _proximity(n_origins, rng)
    w_d = w_o if n_dests == n_origins else _proximity(n_dests, rng)
    return w_o, w_d


def _model(w_o, w_d):
    return AdvancedFramework(w_o, w_d, K, np.random.default_rng(0),
                             rank=3, rnn_hidden=6, rnn_order=2, dropout=0.0)


def _histograms(shape, seed):
    """Dense, unquantized Dirichlet histograms with half the cells
    empty."""
    rng = np.random.default_rng(seed)
    h = rng.dirichlet(np.ones(K), size=shape)
    h[rng.random(shape) < 0.5] = 0.0
    return h


def _slice_bytes(model):
    """Largest first-stage feature-block bytes of one slice, over both
    sides."""
    sizes = []
    for factorizer in (model.factor_r, model.factor_c):
        stages, _ = shardexec._side_stages(factorizer)
        sizes.append(stages[0].pool.rows * K * 8)
    return max(sizes)


# Chunk byte targets, as multiples of one slice's feature block:
# one slice per chunk, 7 slices (chunk boundaries inside intervals),
# and one run per side.
CHUNKINGS = {"one-slice": 1, "split-intervals": 7, "one-run": 1 << 30}


def _set_chunking(monkeypatch, model, name):
    monkeypatch.setattr(shardexec, "_CHUNK_BYTES",
                        CHUNKINGS[name] * _slice_bytes(model))


def _stage1(model, tensors, seed=1, input_grad=True, execution=None):
    """Factors, input gradient and weight gradients of one stage-1
    forward/backward under a fixed output gradient.  Without
    ``input_grad`` the input needs no gradient, so empty slices fold,
    and the input gradient is ``None``."""
    model.zero_grad()
    x = Tensor(tensors.copy(), requires_grad=input_grad)
    r, c = factorize_tensor_batch(model.factor_r, model.factor_c, x,
                                  execution=execution)
    rng = np.random.default_rng(seed)
    loss = (r * rng.standard_normal(r.shape)).sum() \
        + (c * rng.standard_normal(c.shape)).sum()
    loss.backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters()
             if p.grad is not None}
    dx = x.grad.copy() if input_grad else None
    return r.numpy().copy(), c.numpy().copy(), dx, grads


def test_split_intervals_chunking_splits_an_interval(monkeypatch):
    w_o, w_d = _city("non-square")
    model = _model(w_o, w_d)
    _set_chunking(monkeypatch, model, "split-intervals")
    for factorizer, n_side in ((model.factor_r, w_o.shape[0]),
                               (model.factor_c, w_d.shape[0])):
        stages, _ = shardexec._side_stages(factorizer)
        limit = shardexec._chunk_slices(stages, np.float64)
        chunks = shardexec._chunks(np.arange(INTERVALS * n_side), limit)
        assert len(chunks) > INTERVALS
        assert any(chunk[0] % n_side for chunk in chunks)


@pytest.mark.parametrize("city", list(CITIES))
def test_factors_and_input_gradient_bitwise_across_chunkings(monkeypatch,
                                                             city):
    w_o, w_d = _city(city)
    model = _model(w_o, w_d)
    tensors = _histograms((INTERVALS,) + CITIES[city], seed=3)
    results = {}
    for name in CHUNKINGS:
        _set_chunking(monkeypatch, model, name)
        results[name] = _stage1(model, tensors)
    r, c, dx, _ = results["one-run"]
    for name, (r_got, c_got, dx_got, _) in results.items():
        np.testing.assert_array_equal(r_got, r, err_msg=f"R, {name}")
        np.testing.assert_array_equal(c_got, c, err_msg=f"C, {name}")
        np.testing.assert_array_equal(dx_got, dx,
                                      err_msg=f"input gradient, {name}")


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("chunking", ["one-slice", "split-intervals"])
@pytest.mark.parametrize("city", list(CITIES))
def test_weight_gradients_deterministic_and_match_one_run(monkeypatch, city,
                                                          chunking):
    w_o, w_d = _city(city)
    model = _model(w_o, w_d)
    tensors = _histograms((INTERVALS,) + CITIES[city], seed=4)
    _set_chunking(monkeypatch, model, "one-run")
    reference = _stage1(model, tensors)[3]
    _set_chunking(monkeypatch, model, chunking)
    first, second = (_stage1(model, tensors)[3] for _ in range(2))
    assert set(first) == set(reference)
    for name, grad in reference.items():
        np.testing.assert_array_equal(second[name], first[name],
                                      err_msg=name)
        np.testing.assert_allclose(first[name], grad, rtol=1e-8,
                                   atol=1e-12, err_msg=name)


# ----------------------------------------------------------------------
# The empty-slice fold
# ----------------------------------------------------------------------
# Empty (interval, origin) rows and (interval, destination) columns of
# an (INTERVALS, N, N') batch; ``_histograms`` alone leaves none empty.
EMPTY_SETS = {
    "none": ((), ()),
    "one": (((0, 3),), ((1, 5),)),
    "several": (((0, 1), (0, 4), (1, 4), (1, 7), (1, 20)),
                ((0, 0), (1, 2), (1, 9), (0, 23))),
    "whole-side": "all",
}


def _with_empty(tensors, name):
    """``tensors (..., INTERVALS, N, N', K)`` with ``EMPTY_SETS[name]``
    emptied in every leading batch entry."""
    tensors = tensors.copy()
    if EMPTY_SETS[name] == "all":
        tensors[...] = 0.0
        return tensors
    rows, cols = EMPTY_SETS[name]
    for interval, origin in rows:
        tensors[..., interval, origin, :, :] = 0.0
    for interval, dest in cols:
        tensors[..., interval, :, dest, :] = 0.0
    return tensors


def _slices_run(monkeypatch):
    """Count the slices stage 1 runs through ``_forward_chunk``."""
    counted = []
    forward_chunk = shardexec._forward_chunk

    def counting(x, batch, stages, head):
        counted.append(batch)
        return forward_chunk(x, batch, stages, head)

    monkeypatch.setattr(shardexec, "_forward_chunk", counting)
    return counted


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("empty", list(EMPTY_SETS))
@pytest.mark.parametrize("city", list(CITIES))
def test_fold_factors_bitwise_and_weight_gradients_match_every_slice(
        monkeypatch, city, empty):
    w_o, w_d = _city(city)
    model = _model(w_o, w_d)
    tensors = _with_empty(_histograms((INTERVALS,) + CITIES[city], seed=5),
                          empty)
    _set_chunking(monkeypatch, model, "split-intervals")
    counted = _slices_run(monkeypatch)
    r, c, _, reference = _stage1(model, tensors)
    assert sum(counted) == tensors.shape[0] * sum(CITIES[city])
    del counted[:]
    first, second = (_stage1(model, tensors, input_grad=False)
                     for _ in range(2))
    occupied = sum(int(tensors.any(axis=axes).sum())
                   for axes in ((2, 3), (1, 3)))
    folded = sum(bool((~tensors.any(axis=axes)).any())
                 for axes in ((2, 3), (1, 3)))
    assert sum(counted) == 2 * (occupied + folded)
    np.testing.assert_array_equal(first[0], r)
    np.testing.assert_array_equal(first[1], c)
    assert set(first[3]) == set(reference)
    for name, grad in reference.items():
        np.testing.assert_array_equal(second[3][name], first[3][name],
                                      err_msg=name)
        np.testing.assert_allclose(first[3][name], grad, rtol=1e-8,
                                   atol=1e-12, err_msg=name)


@pytest.mark.parametrize("empty", ["several", "whole-side"])
@pytest.mark.parametrize("city", list(CITIES))
def test_fold_exact_sharding_bitwise_vs_dense(monkeypatch, city, empty):
    w_o, w_d = _city(city)
    model = _model(w_o, w_d)
    tensors = _with_empty(_histograms((INTERVALS,) + CITIES[city], seed=6),
                          empty)
    _set_chunking(monkeypatch, model, "split-intervals")
    dense = _stage1(model, tensors, input_grad=False)
    execution = ShardedExecution(plan_shards(w_o, w_d, n_shards=3, hops=1),
                                 mode="exact")
    exact = _stage1(model, tensors, input_grad=False, execution=execution)
    np.testing.assert_array_equal(exact[0], dense[0])
    np.testing.assert_array_equal(exact[1], dense[1])
    assert set(exact[3]) == set(dense[3])
    for name, grad in dense[3].items():
        np.testing.assert_array_equal(exact[3][name], grad, err_msg=name)
