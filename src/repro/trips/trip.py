"""Trip records.

A trip (paper §III) is ``p = (o, d, t, l, τ)``: origin point, destination
point, departure time, trip distance, and travel time; the average speed
is derived as ``v = l / τ``.  :class:`TripTable` is the columnar container
used throughout the pipeline — millions of trips stay as flat numpy
arrays, with :class:`Trip` as the per-record view for ergonomic access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Trip:
    """A single vehicle trip.

    Attributes
    ----------
    origin, destination:
        Planar km coordinates of pickup and dropoff.
    departure_min:
        Departure time in minutes since the dataset epoch.
    distance_km:
        Travelled distance (not straight-line).
    duration_min:
        Travel time in minutes.
    """

    origin: tuple
    destination: tuple
    departure_min: float
    distance_km: float
    duration_min: float

    @property
    def speed_ms(self) -> float:
        """Average speed in m/s — the unit of the paper's histograms."""
        return self.distance_km * 1000.0 / (self.duration_min * 60.0)


class TripTable:
    """Columnar set of trips backed by flat numpy arrays.

    Columns: ``origin_xy (n, 2)``, ``dest_xy (n, 2)``,
    ``departure_min (n,)``, ``distance_km (n,)``, ``duration_min (n,)``.
    """

    def __init__(self, origin_xy: np.ndarray, dest_xy: np.ndarray,
                 departure_min: np.ndarray, distance_km: np.ndarray,
                 duration_min: np.ndarray):
        self.origin_xy = np.asarray(origin_xy, dtype=np.float64)
        self.dest_xy = np.asarray(dest_xy, dtype=np.float64)
        self.departure_min = np.asarray(departure_min, dtype=np.float64)
        self.distance_km = np.asarray(distance_km, dtype=np.float64)
        self.duration_min = np.asarray(duration_min, dtype=np.float64)
        n = len(self.departure_min)
        for name, column in [("origin_xy", self.origin_xy),
                             ("dest_xy", self.dest_xy),
                             ("distance_km", self.distance_km),
                             ("duration_min", self.duration_min)]:
            if len(column) != n:
                raise ValueError(f"column {name} has length {len(column)}, "
                                 f"expected {n}")
        if (self.duration_min <= 0).any():
            raise ValueError("durations must be positive")
        if (self.distance_km < 0).any():
            raise ValueError("distances must be non-negative")

    def __len__(self) -> int:
        return len(self.departure_min)

    @property
    def speed_ms(self) -> np.ndarray:
        """Average speeds in m/s for every trip."""
        return self.distance_km * 1000.0 / (self.duration_min * 60.0)

    def __getitem__(self, index) -> "TripTable":
        """Row subset (mask or index array) as a new table."""
        return TripTable(self.origin_xy[index], self.dest_xy[index],
                         self.departure_min[index], self.distance_km[index],
                         self.duration_min[index])

    @staticmethod
    def concatenate(tables: list) -> "TripTable":
        if not tables:
            raise ValueError("cannot concatenate zero tables")
        return TripTable(
            np.concatenate([t.origin_xy for t in tables]),
            np.concatenate([t.dest_xy for t in tables]),
            np.concatenate([t.departure_min for t in tables]),
            np.concatenate([t.distance_km for t in tables]),
            np.concatenate([t.duration_min for t in tables]))

    @staticmethod
    def empty() -> "TripTable":
        return TripTable(np.empty((0, 2)), np.empty((0, 2)),
                         np.empty(0), np.empty(0), np.empty(0))
