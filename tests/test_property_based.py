"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autodiff import Tensor, ops
from repro.graph import (coarsen_adjacency, coarsen_graph,
                         heavy_edge_matching, laplacian, scaled_laplacian)
from repro.histograms import HistogramSpec, normalize_histogram
from repro.metrics import emd, js_divergence, kl_divergence

finite_floats = st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-3, max_value=50,
                            allow_nan=False, allow_infinity=False)


def histograms(k=7):
    return arrays(np.float64, (k,),
                  elements=st.floats(min_value=1e-6, max_value=1.0)
                  ).map(lambda raw: raw / raw.sum())


@st.composite
def symmetric_adjacency(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    raw = draw(arrays(np.float64, (n, n),
                      elements=st.floats(min_value=0, max_value=5)))
    sym = np.triu(raw, k=1)
    return sym + sym.T


class TestMetricProperties:
    @given(histograms())
    def test_metrics_zero_on_identity(self, m):
        assert abs(kl_divergence(m, m)) < 1e-9
        assert abs(js_divergence(m, m)) < 1e-9
        assert abs(emd(m, m)) < 1e-9

    @given(histograms(), histograms())
    def test_js_symmetric_nonneg_bounded(self, m, m_hat):
        a = js_divergence(m, m_hat)
        b = js_divergence(m_hat, m)
        assert abs(a - b) < 1e-9
        assert a >= -1e-12
        assert a <= np.log(2) + 1e-6

    @given(histograms(), histograms())
    def test_emd_symmetric_nonneg(self, m, m_hat):
        assert abs(emd(m, m_hat) - emd(m_hat, m)) < 1e-9
        assert emd(m, m_hat) >= -1e-12

    @given(histograms(), histograms(), histograms())
    def test_emd_triangle_inequality(self, a, b, c):
        assert emd(a, c) <= emd(a, b) + emd(b, c) + 1e-9

    @given(histograms(), histograms())
    def test_emd_bounded_by_k_minus_one(self, m, m_hat):
        assert emd(m, m_hat) <= (len(m) - 1) + 1e-9


class TestHistogramProperties:
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3,
                                           min_side=1, max_side=6),
                  elements=st.floats(min_value=-2, max_value=5,
                                     allow_nan=False)))
    def test_normalize_always_valid(self, raw):
        out = normalize_histogram(raw)
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()

    @given(arrays(np.float64, (50,),
                  elements=st.floats(min_value=0, max_value=40,
                                     allow_nan=False)))
    def test_build_histogram_valid(self, speeds):
        hist = HistogramSpec.paper_default().build(speeds)
        assert abs(hist.sum() - 1.0) < 1e-9
        assert (hist >= 0).all()

    @given(st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_bucket_assignment_in_range(self, speed):
        spec = HistogramSpec.paper_default()
        bucket = spec.assign_bucket(np.array([speed]))[0]
        assert 0 <= bucket < spec.n_buckets
        # the speed actually falls in the assigned bucket's range
        lo = spec.edges[bucket]
        hi = spec.edges[bucket + 1]
        assert lo <= speed < hi or (bucket == spec.n_buckets - 1
                                    and speed >= lo)


class TestAutodiffProperties:
    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (3, 4), elements=finite_floats),
           arrays(np.float64, (3, 4), elements=finite_floats))
    def test_addition_gradient_is_ones(self, a_data, b_data):
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (2, 5), elements=finite_floats))
    def test_softmax_rows_valid(self, data):
        out = ops.softmax(Tensor(data), axis=-1).numpy()
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (4, 3), elements=finite_floats))
    def test_mul_grad_matches_other_operand(self, data):
        a = Tensor(data, requires_grad=True)
        b = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        (a * b).sum().backward()
        assert np.allclose(a.grad, b.data)

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (6, 2), elements=finite_floats))
    def test_mean_pool_preserves_mean(self, data):
        pooled = ops.mean_pool_axis(Tensor(data), 0, 2).numpy()
        assert np.allclose(pooled.mean(axis=0), data.mean(axis=0))


class TestGraphProperties:
    @settings(max_examples=30, deadline=None)
    @given(symmetric_adjacency())
    def test_matching_is_partition(self, weights):
        cluster = heavy_edge_matching(weights)
        assert len(cluster) == len(weights)
        assert (cluster >= 0).all()
        _, counts = np.unique(cluster, return_counts=True)
        assert counts.max() <= 2

    @settings(max_examples=30, deadline=None)
    @given(symmetric_adjacency())
    def test_coarsening_conserves_cross_weights(self, weights):
        cluster = heavy_edge_matching(weights)
        coarse = coarsen_adjacency(weights, cluster)
        assert np.allclose(coarse, coarse.T)
        # Total coarse weight <= total fine weight (intra-cluster edges
        # collapse onto the dropped diagonal).
        assert coarse.sum() <= weights.sum() + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(symmetric_adjacency(max_n=8))
    def test_laplacian_psd(self, weights):
        eigenvalues = np.linalg.eigvalsh(laplacian(weights))
        assert eigenvalues.min() > -1e-8

    @settings(max_examples=20, deadline=None)
    @given(symmetric_adjacency(max_n=8))
    def test_scaled_laplacian_spectrum(self, weights):
        eigenvalues = np.linalg.eigvalsh(scaled_laplacian(weights))
        assert eigenvalues.max() <= 1.0 + 1e-8
        assert eigenvalues.min() >= -1.0 - 1e-8

    @settings(max_examples=15, deadline=None)
    @given(symmetric_adjacency(max_n=8),
           st.integers(min_value=1, max_value=2))
    def test_coarsen_graph_perm_covers_real_nodes(self, weights, levels):
        c = coarsen_graph(weights, levels)
        real = sorted(p for p in c.perm if p < len(weights))
        assert real == list(range(len(weights)))
        assert c.graphs[0].shape[0] % (2 ** levels) == 0
