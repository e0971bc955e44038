"""Tests for sparse OD tensor construction."""

import numpy as np
import pytest

from repro.histograms import HistogramSpec, build_od_tensors
from repro.trips import TripTable


class TestBuildOdTensors:
    def test_shapes(self, dataset, sequence):
        n = dataset.city.n_regions
        t = dataset.field.n_intervals
        assert sequence.tensors.shape == (t, n, n, 7)
        assert sequence.mask.shape == (t, n, n)
        assert sequence.counts.shape == (t, n, n)

    def test_observed_cells_are_histograms(self, sequence):
        observed = sequence.tensors[sequence.mask]
        assert np.allclose(observed.sum(axis=-1), 1.0)
        assert (observed >= 0).all()

    def test_unobserved_cells_all_zero(self, sequence):
        hidden = sequence.tensors[~sequence.mask]
        assert np.allclose(hidden, 0.0)

    def test_counts_match_trip_total(self, dataset, sequence):
        assert sequence.counts.sum() == len(dataset.trips)

    def test_manual_cell_check(self, dataset, sequence):
        """Rebuild one busy cell's histogram by hand and compare."""
        trips = dataset.trips
        t, o, d = np.unravel_index(np.argmax(sequence.counts),
                                   sequence.counts.shape)
        interval = (trips.departure_min // 15).astype(int)
        origins = dataset.city.partition.assign(trips.origin_xy)
        dests = dataset.city.partition.assign(trips.dest_xy)
        mask = (interval == t) & (origins == o) & (dests == d)
        manual = sequence.spec.build(trips.speed_ms[mask])
        assert np.allclose(sequence.tensors[t, o, d], manual)

    def test_min_trips_threshold(self, dataset):
        loose = build_od_tensors(dataset.trips, dataset.city,
                                 n_intervals=dataset.field.n_intervals,
                                 min_trips=1)
        strict = build_od_tensors(dataset.trips, dataset.city,
                                  n_intervals=dataset.field.n_intervals,
                                  min_trips=3)
        assert strict.mask.sum() < loose.mask.sum()
        # thresholded cells must be zeroed
        assert np.allclose(strict.tensors[~strict.mask], 0.0)

    def test_sparsity_and_coverage(self, sequence):
        sparsity = sequence.sparsity()
        assert sparsity.shape == (sequence.n_intervals,)
        assert (sparsity >= 0).all() and (sparsity <= 1).all()
        assert 0 < sequence.coverage() <= 1.0

    def test_night_intervals_sparser(self, sequence):
        sparsity = sequence.sparsity()
        per_day = 96
        days = sequence.n_intervals // per_day
        shaped = sparsity[:days * per_day].reshape(days, per_day)
        night = shaped[:, 8:20].mean()    # 02:00-05:00
        evening = shaped[:, 68:80].mean()  # 17:00-20:00
        assert night > evening

    def test_custom_interval_minutes(self, dataset):
        seq = build_od_tensors(dataset.trips, dataset.city,
                               interval_minutes=60.0)
        assert seq.n_intervals == pytest.approx(
            dataset.field.n_intervals / 4, abs=1)

    def test_slice(self, sequence):
        part = sequence.slice(10, 20)
        assert part.n_intervals == 10
        assert np.allclose(part.tensors, sequence.tensors[10:20])

    def test_empty_trips_with_intervals(self, dataset):
        seq = build_od_tensors(TripTable.empty(), dataset.city,
                               n_intervals=5)
        assert seq.n_intervals == 5
        assert seq.mask.sum() == 0

    def test_empty_trips_without_intervals_raises(self, dataset):
        with pytest.raises(ValueError):
            build_od_tensors(TripTable.empty(), dataset.city)

    def test_out_of_range_departures_dropped(self, dataset):
        seq = build_od_tensors(dataset.trips, dataset.city, n_intervals=10)
        in_range = (dataset.trips.departure_min < 150).sum()
        assert seq.counts.sum() == in_range


def ground_truth_tensors(field):
    """``(T, N, N, K)`` exact bucket probabilities of the latent field."""
    edges = np.asarray(HistogramSpec.paper_default().edges)
    return np.stack([field.true_histogram(t, edges)
                     for t in range(field.n_intervals)])


class TestGroundTruth:
    def test_dense_and_valid(self, dataset):
        gt = ground_truth_tensors(dataset.field)
        assert gt.shape[0] == dataset.field.n_intervals
        assert np.allclose(gt.sum(axis=-1), 1.0)

    def test_empirical_converges_to_truth(self, dataset, sequence):
        """Cells with many trips should approximate the analytic truth."""
        gt = ground_truth_tensors(dataset.field)
        busy = sequence.counts >= 25
        if busy.sum() == 0:
            pytest.skip("toy dataset too sparse for convergence check")
        err = np.abs(sequence.tensors[busy] - gt[busy]).sum(-1)
        assert err.mean() < 0.45
