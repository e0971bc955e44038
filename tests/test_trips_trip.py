"""Tests for Trip and TripTable."""

import numpy as np
import pytest

from repro.trips import Trip, TripTable


def _table(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return TripTable(
        origin_xy=rng.uniform(0, 5, size=(n, 2)),
        dest_xy=rng.uniform(0, 5, size=(n, 2)),
        departure_min=np.sort(rng.uniform(0, 100, size=n)),
        distance_km=rng.uniform(0.5, 5, size=n),
        duration_min=rng.uniform(2, 30, size=n),
    )


class TestTrip:
    def test_speed_conversions(self):
        trip = Trip(origin=(0, 0), destination=(1, 1), departure_min=0.0,
                    distance_km=6.0, duration_min=30.0)
        assert trip.speed_ms == pytest.approx(12.0 / 3.6)   # 12 km/h


class TestTripTable:
    def test_len_and_speeds(self):
        table = _table(7)
        assert len(table) == 7
        expected = table.distance_km * 1000 / (table.duration_min * 60)
        assert np.allclose(table.speed_ms, expected)

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError):
            TripTable(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3),
                      np.ones(3), np.ones(3))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            TripTable(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1),
                      np.ones(1), np.zeros(1))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            TripTable(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1),
                      -np.ones(1), np.ones(1))

    def test_subset_by_mask(self):
        table = _table(6)
        fast = table[table.speed_ms > np.median(table.speed_ms)]
        assert len(fast) < len(table)
        assert (fast.speed_ms > np.median(table.speed_ms)).all()

    def test_concatenate(self):
        a, b = _table(3, seed=1), _table(4, seed=2)
        combined = TripTable.concatenate([a, b])
        assert len(combined) == 7
        assert np.allclose(combined.distance_km[:3], a.distance_km)

    def test_concatenate_empty_list(self):
        with pytest.raises(ValueError):
            TripTable.concatenate([])

    def test_empty(self):
        table = TripTable.empty()
        assert len(table) == 0
        assert table.speed_ms.shape == (0,)
