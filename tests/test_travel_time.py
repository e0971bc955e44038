"""Tests for travel-time distribution derivation."""

import numpy as np
import pytest

from repro.histograms import HistogramSpec
from repro.histograms.travel_time import travel_time_distribution

SPEC = HistogramSpec.paper_default()


class TestDerivation:
    def test_mass_preserved(self):
        histogram = np.array([0.1, 0.2, 0.3, 0.2, 0.1, 0.05, 0.05])
        dist = travel_time_distribution(histogram, SPEC, trip_km=5.0)
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_sorted_by_time(self):
        histogram = np.full(7, 1 / 7)
        dist = travel_time_distribution(histogram, SPEC, trip_km=5.0)
        fast = dist.intervals_min[:, 0]
        assert (np.diff(fast) > 0).all()

    def test_faster_speeds_give_shorter_times(self):
        slow = travel_time_distribution(
            np.array([1.0, 0, 0, 0, 0, 0, 0]), SPEC, 6.0)
        fast = travel_time_distribution(
            np.array([0, 0, 0, 0, 0, 0, 1.0]), SPEC, 6.0)
        assert fast.quantile(1.0) < slow.quantile(1.0)

    def test_speed_time_inverse_relation(self):
        """A single bucket [9, 12) m/s for a 5.4 km trip maps to
        [7.5, 10] minutes."""
        histogram = np.zeros(7)
        histogram[3] = 1.0       # [9, 12) m/s
        dist = travel_time_distribution(histogram, SPEC, trip_km=5.4)
        fast, slow = dist.intervals_min[0]
        assert fast == pytest.approx(5400 / 12 / 60)
        assert slow == pytest.approx(5400 / 9 / 60)

    def test_unnormalized_input_renormalized(self):
        dist = travel_time_distribution(
            np.array([2.0, 2.0, 0, 0, 0, 0, 0]), SPEC, 3.0)
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            travel_time_distribution(np.zeros(7), SPEC, 3.0)
        with pytest.raises(ValueError):
            travel_time_distribution(np.full(7, 1 / 7), SPEC, -1.0)
        with pytest.raises(ValueError):
            travel_time_distribution(np.full(5, 0.2), SPEC, 3.0)


class TestQuantiles:
    def _dist(self):
        histogram = np.array([0.5, 0.0, 0.0, 0.3, 0.0, 0.0, 0.2])
        return travel_time_distribution(histogram, SPEC, trip_km=6.0)

    def test_quantile_monotone(self):
        dist = self._dist()
        qs = [dist.quantile(q) for q in (0.2, 0.5, 0.8, 0.99)]
        assert qs == sorted(qs)

    def test_full_confidence_is_slowest(self):
        dist = self._dist()
        assert dist.quantile(1.0) == pytest.approx(
            dist.intervals_min[-1, 1])

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            self._dist().quantile(0.0)
        with pytest.raises(ValueError):
            self._dist().quantile(1.5)
