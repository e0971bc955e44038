"""Chunk invariance of the AF's stage 1 (``repro.core.shardexec``).

Each factorizer side runs its slices in chunks sized by
``shardexec._CHUNK_BYTES``.  The chunking must not show in what the
model computes: forward factors and input gradients are bit-identical
at every chunk size (a slice's GEMMs never see its chunk partners),
weight gradients are per-chunk partials summed in fixed chunk order
(deterministic, and equal to one run per side up to round-off), and the
schedule depends on shapes only, so a replayed inference tape stays
exact on a window with a different zero pattern.
"""

import numpy as np
import pytest

from repro.autodiff import InferenceEngine, Tensor
from repro.core import AdvancedFramework, factorize_tensor_batch
from repro.core import shardexec

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


def _stage1(model, tensors, seed=1):
    """Factors, input gradient and weight gradients of one stage-1
    forward/backward under a fixed output gradient."""
    model.zero_grad()
    x = Tensor(tensors.copy(), requires_grad=True)
    r, c = factorize_tensor_batch(model.factor_r, model.factor_c, x)
    rng = np.random.default_rng(seed)
    loss = (r * rng.standard_normal(r.shape)).sum() \
        + (c * rng.standard_normal(c.shape)).sum()
    loss.backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters()
             if p.grad is not None}
    return r.numpy().copy(), c.numpy().copy(), x.grad.copy(), grads


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


@pytest.mark.parametrize("chunking", ["one-slice", "split-intervals"])
@pytest.mark.parametrize("city", list(CITIES))
def test_replay_on_new_zero_pattern_equals_eager(monkeypatch, city,
                                                 chunking):
    w_o, w_d = _city(city)
    shape = (2, INTERVALS) + CITIES[city]
    first, second = _histograms(shape, seed=7), _histograms(shape, seed=8)
    assert not np.array_equal(first.any(axis=-1), second.any(axis=-1))

    served = _model(w_o, w_d)
    _set_chunking(monkeypatch, served, chunking)
    engine = InferenceEngine(served)
    for history in (first, second):
        replayed = engine.predict(history, 1)
    assert (engine.captures, engine.replays) == (1, 1)

    eager = _model(w_o, w_d)
    eager.eval()
    prediction, _, _ = eager(second, 1)
    np.testing.assert_array_equal(replayed, prediction.data)
