"""Building sparse OD stochastic speed tensors from trips.

Given a trip table, a city partition, and a histogram spec, this module
produces the sequence of sparse OD tensors ``M^(t) ∈ R^{N×N×K}`` (paper
§III): cell ``(o, d, :)`` is the speed histogram of trips departing in
interval ``t`` from region ``o`` to region ``d``, or all-zero when the
interval has no such trips.  The companion indication masks ``Ω^(t)``
mark the observed cells (used by the masked losses and the DisSim
metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..regions.city import City
from ..trips.trip import TripTable
from .histogram import HistogramSpec


@dataclass
class ODTensorSequence:
    """A sequence of (sparse) OD stochastic speed tensors.

    Attributes
    ----------
    tensors:
        ``(T, N, N', K)`` stacked histograms (all-zero where unobserved).
    mask:
        ``(T, N, N')`` boolean indication tensors Ω.
    counts:
        ``(T, N, N')`` trip counts behind each cell.
    spec:
        Histogram bucket layout.
    interval_minutes:
        Interval width; interval ``t`` covers
        ``[t*interval, (t+1)*interval)`` minutes since epoch.
    """

    tensors: np.ndarray
    mask: np.ndarray
    counts: np.ndarray
    spec: HistogramSpec
    interval_minutes: float
    #: Set for sequences derived from an already-validated one (slices)
    #: so the construction-time contract check is not repeated.
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tensors.ndim != 4:
            raise ValueError(
                f"tensors must be (T, N, N', K), got {self.tensors.shape}")
        if self.mask.shape != self.tensors.shape[:3]:
            raise ValueError("mask shape must match tensors[:3]")
        if self.counts.shape != self.mask.shape:
            raise ValueError("counts shape must match mask")
        # Data contract at the construction boundary: NaN hard-errors,
        # non-bool masks are cast, drifted/malformed observed histograms
        # are renormalized/quarantined per the active ContractPolicy
        # (sliced views skip the re-check — the parent already ran it).
        if not getattr(self, "_validated", False):
            from ..contracts import get_contract_policy, validate_sequence
            if get_contract_policy().enabled:
                validate_sequence(self, "ODTensorSequence")

    @property
    def n_intervals(self) -> int:
        return self.tensors.shape[0]

    @property
    def n_origins(self) -> int:
        return self.tensors.shape[1]

    @property
    def n_destinations(self) -> int:
        return self.tensors.shape[2]

    @property
    def n_buckets(self) -> int:
        return self.tensors.shape[3]

    def sparsity(self) -> np.ndarray:
        """Fraction of *unobserved* OD cells per interval, shape ``(T,)``."""
        observed = self.mask.reshape(self.n_intervals, -1).mean(axis=1)
        return 1.0 - observed

    def coverage(self) -> float:
        """Fraction of OD pairs observed in at least one interval."""
        return float(self.mask.any(axis=0).mean())

    def slice(self, start: int, stop: int) -> "ODTensorSequence":
        return ODTensorSequence(self.tensors[start:stop],
                                self.mask[start:stop],
                                self.counts[start:stop],
                                self.spec, self.interval_minutes,
                                _validated=True)


def build_od_tensors(trips: TripTable, city: City,
                     spec: Optional[HistogramSpec] = None,
                     interval_minutes: float = 15.0,
                     n_intervals: Optional[int] = None,
                     min_trips: int = 1) -> ODTensorSequence:
    """Aggregate trips into the sparse OD tensor sequence.

    Parameters
    ----------
    trips:
        The trip table (origins/destinations as planar coordinates; they
        are mapped to regions with the city's partition).
    city:
        Provides the region partition.
    spec:
        Histogram layout; defaults to the paper's 7 buckets.
    interval_minutes:
        Time discretization (15 minutes in the paper).
    n_intervals:
        Total number of intervals; inferred from the last departure when
        omitted.
    min_trips:
        Minimum trips for a cell to count as observed (cells below the
        threshold stay empty, a standard robustness knob).
    """
    spec = spec or HistogramSpec.paper_default()
    n = city.n_regions
    if n_intervals is None:
        if len(trips) == 0:
            raise ValueError("cannot infer n_intervals from zero trips")
        n_intervals = int(trips.departure_min.max() // interval_minutes) + 1

    tensors = np.zeros((n_intervals, n, n, spec.n_buckets))
    counts = np.zeros((n_intervals, n, n))

    if len(trips):
        interval = (trips.departure_min // interval_minutes).astype(np.int64)
        keep = (interval >= 0) & (interval < n_intervals)
        interval = interval[keep]
        kept = trips[keep]
        origin = city.partition.assign(kept.origin_xy)
        dest = city.partition.assign(kept.dest_xy)
        bucket = spec.assign_bucket(kept.speed_ms)
        np.add.at(tensors, (interval, origin, dest, bucket), 1.0)
        np.add.at(counts, (interval, origin, dest), 1.0)

    mask = counts >= min_trips
    tensors[~mask] = 0.0
    totals = tensors.sum(axis=-1, keepdims=True)
    np.divide(tensors, totals, out=tensors, where=totals > 0)
    return ODTensorSequence(tensors=tensors, mask=mask, counts=counts,
                            spec=spec, interval_minutes=interval_minutes)
