"""Equi-width speed histograms (the paper's stochastic cost model).

A stochastic speed is a K-bucket equi-width histogram over speeds in m/s.
The paper uses 7 buckets ``[0,3), [3,6), ..., [15,18), [18,∞)`` — the
final bucket absorbs the open tail.  :class:`HistogramSpec` owns the
bucket edges; building, normalizing, and summarizing histograms lives
here, independent of the OD tensor machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HistogramSpec:
    """Bucket layout of stochastic speed histograms.

    Attributes
    ----------
    edges:
        Monotone bucket boundaries of length ``K+1``; ``edges[-1]`` may be
        ``inf`` (open last bucket).  Units are m/s.
    """

    edges: tuple

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("edges must be a 1-D sequence of length >= 2")
        if not (np.diff(edges) > 0).all():
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", tuple(float(e) for e in edges))

    @classmethod
    def paper_default(cls) -> "HistogramSpec":
        """The paper's 7 buckets: [0,3), [3,6), ..., [15,18), [18,inf)."""
        return cls(edges=(0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, np.inf))

    @property
    def n_buckets(self) -> int:
        return len(self.edges) - 1

    @property
    def finite_edges(self) -> np.ndarray:
        """Edges with the open tail replaced by one extra bucket width."""
        edges = np.asarray(self.edges)
        if np.isinf(edges[-1]):
            width = edges[-2] - edges[-3] if len(edges) > 2 else 1.0
            edges = edges.copy()
            edges[-1] = edges[-2] + width
        return edges

    @property
    def centers(self) -> np.ndarray:
        """Representative speed per bucket (midpoints; open tail capped)."""
        edges = self.finite_edges
        return 0.5 * (edges[:-1] + edges[1:])

    def assign_bucket(self, speeds: np.ndarray) -> np.ndarray:
        """Bucket index per speed; out-of-range speeds clamp to the ends."""
        speeds = np.asarray(speeds, dtype=np.float64)
        idx = np.searchsorted(np.asarray(self.edges), speeds, side="right") - 1
        return np.clip(idx, 0, self.n_buckets - 1)

    def build(self, speeds: np.ndarray) -> np.ndarray:
        """Normalized histogram of the given speeds, shape ``(K,)``.

        Raises on empty input: an empty OD cell is represented by the
        all-zero vector at the tensor level, not by a histogram.
        """
        speeds = np.asarray(speeds, dtype=np.float64)
        if speeds.size == 0:
            raise ValueError("cannot build a histogram from zero speeds")
        counts = np.bincount(self.assign_bucket(speeds),
                             minlength=self.n_buckets).astype(np.float64)
        return counts / counts.sum()

    def mean_speed(self, histogram: np.ndarray) -> float:
        """Expected speed implied by a histogram (bucket midpoints)."""
        histogram = np.asarray(histogram, dtype=np.float64)
        return float((histogram * self.centers).sum())


def normalize_histogram(raw: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize; zero vectors become uniform."""
    raw = np.clip(np.asarray(raw, dtype=np.float64), 0.0, None)
    total = raw.sum(axis=-1, keepdims=True)
    uniform = np.ones_like(raw) / raw.shape[-1]
    # Dividing by the true total (not a clamped one) keeps even denormal
    # inputs exactly normalized; zero totals take the uniform branch.
    safe_total = np.where(total > 0, total, 1.0)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        out = np.where(total > 0, raw / safe_total, uniform)
    return out
