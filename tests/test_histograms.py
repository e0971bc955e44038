"""Tests for histogram specs and histogram utilities."""

import numpy as np
import pytest

from repro.histograms import HistogramSpec, normalize_histogram


class TestHistogramSpec:
    def test_paper_default(self):
        spec = HistogramSpec.paper_default()
        assert spec.n_buckets == 7
        assert spec.edges[0] == 0.0
        assert np.isinf(spec.edges[-1])

    def test_edges_validation(self):
        with pytest.raises(ValueError):
            HistogramSpec(edges=(0.0,))
        with pytest.raises(ValueError):
            HistogramSpec(edges=(0.0, 2.0, 1.0))

    def test_finite_edges_caps_tail(self):
        spec = HistogramSpec.paper_default()
        finite = spec.finite_edges
        assert finite[-1] == pytest.approx(21.0)  # 18 + bucket width 3

    def test_centers(self):
        spec = HistogramSpec(edges=(0.0, 2.0, 4.0))
        assert np.allclose(spec.centers, [1.0, 3.0])

    def test_assign_bucket(self):
        spec = HistogramSpec.paper_default()
        speeds = np.array([0.0, 2.9, 3.0, 17.9, 18.0, 50.0])
        assert list(spec.assign_bucket(speeds)) == [0, 0, 1, 5, 6, 6]

    def test_assign_bucket_clamps_below(self):
        spec = HistogramSpec(edges=(1.0, 2.0, 3.0))
        assert spec.assign_bucket(np.array([0.0])) == 0

    def test_build_normalized(self, rng):
        spec = HistogramSpec.paper_default()
        hist = spec.build(rng.uniform(0, 25, size=1000))
        assert (hist >= 0).all() and hist.sum() == pytest.approx(1.0)

    def test_build_empty_raises(self):
        with pytest.raises(ValueError):
            HistogramSpec.paper_default().build(np.array([]))

    def test_build_single_speed_is_one_hot(self):
        hist = HistogramSpec.paper_default().build(np.array([7.5]))
        assert hist[2] == 1.0 and hist.sum() == 1.0

    def test_mean_speed(self):
        spec = HistogramSpec(edges=(0.0, 2.0, 4.0))
        assert spec.mean_speed(np.array([0.5, 0.5])) == pytest.approx(2.0)


class TestValidation:
    def test_normalize_positive(self):
        raw = np.array([2.0, 2.0, 4.0])
        assert np.allclose(normalize_histogram(raw), [0.25, 0.25, 0.5])

    def test_normalize_clips_negatives(self):
        out = normalize_histogram(np.array([-1.0, 1.0, 1.0]))
        assert np.allclose(out, [0.0, 0.5, 0.5])

    def test_normalize_zero_becomes_uniform(self):
        out = normalize_histogram(np.zeros(4))
        assert np.allclose(out, 0.25)

    def test_normalize_batched(self, rng):
        raw = rng.uniform(-0.5, 1.0, size=(5, 6, 3))
        out = normalize_histogram(raw)
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()

