"""Travel-time distributions derived from speed histograms.

The paper's §I motivates stochastic OD matrices with exactly this
computation: given the forecast *speed* histogram for an OD pair and the
trip length, derive the *travel-time* distribution and plan with a
quantile instead of the mean.  Since time = distance / speed is
monotone decreasing in speed, each speed bucket ``[v_lo, v_hi)`` maps to
the time interval ``(d/v_hi, d/v_lo]`` with the same probability mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .histogram import HistogramSpec

#: Floor (m/s) applied to bucket edges so the zero/open edges produce
#: finite times.
MIN_SPEED_MS = 0.5


@dataclass(frozen=True)
class TravelTimeDistribution:
    """A travel-time distribution as (interval, probability) pieces.

    Attributes
    ----------
    intervals_min:
        ``(K, 2)`` array of ``(fastest, slowest)`` minutes per piece,
        sorted by increasing time; the slowest edge of an open speed
        bucket is finite because speeds are floored at :data:`MIN_SPEED_MS`.
    probabilities:
        Probability mass per piece (sums to 1).
    """

    intervals_min: np.ndarray
    probabilities: np.ndarray

    def quantile(self, q: float) -> float:
        """Minutes needed so that P(time <= minutes) >= q.

        Conservative within a piece: returns the piece's slow edge, the
        value a risk-averse traveller plans with.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        accumulated = 0.0
        for (fast, slow), probability in zip(self.intervals_min,
                                             self.probabilities):
            accumulated += probability
            if accumulated >= q - 1e-12:
                return float(slow)
        return float(self.intervals_min[-1, 1])


def travel_time_distribution(speed_histogram: np.ndarray,
                             spec: HistogramSpec,
                             trip_km: float) -> TravelTimeDistribution:
    """Map a speed histogram to the trip's travel-time distribution.

    Parameters
    ----------
    speed_histogram:
        ``(K,)`` probabilities over the spec's speed buckets.
    spec:
        Bucket layout (m/s).
    trip_km:
        Trip length in km.
    """
    histogram = np.asarray(speed_histogram, dtype=np.float64)
    if histogram.ndim != 1 or len(histogram) != spec.n_buckets:
        raise ValueError(
            f"histogram must have {spec.n_buckets} buckets, got "
            f"{histogram.shape}")
    if trip_km <= 0:
        raise ValueError("trip_km must be positive")
    total = histogram.sum()
    if total <= 0:
        raise ValueError("histogram has no mass")
    histogram = histogram / total

    edges = spec.finite_edges
    metres = trip_km * 1000.0
    pieces: List[Tuple[float, float, float]] = []
    for k in range(spec.n_buckets):
        if histogram[k] <= 0:
            continue
        v_lo = max(edges[k], MIN_SPEED_MS)
        v_hi = max(edges[k + 1], v_lo + 1e-9)
        fastest = metres / v_hi / 60.0
        slowest = metres / v_lo / 60.0
        pieces.append((fastest, slowest, histogram[k]))
    pieces.sort(key=lambda piece: piece[0])
    intervals = np.array([[fast, slow] for fast, slow, _ in pieces])
    probabilities = np.array([p for _, _, p in pieces])
    return TravelTimeDistribution(intervals_min=intervals,
                                  probabilities=probabilities)
