"""City partitioning into regions.

The paper exemplifies two partition styles (its Fig. 1): a uniform grid
and a main-road-based irregular partition.  The city models use the
latter: :class:`SeededPartition` builds nearest-seed (Voronoi) cells, the
planar analogue of taxizone/main-road partitions with irregular region
shapes.  It exposes region count, centroids, a vectorized
``assign(points)`` mapping coordinates to region ids, and region areas.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import BoundingBox


class Partition:
    """Interface shared by all partitions."""

    @property
    def n_regions(self) -> int:
        raise NotImplementedError

    @property
    def centroids(self) -> np.ndarray:
        """Region centroids, shape ``(n_regions, 2)`` in km."""
        raise NotImplementedError

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Map ``points (..., 2)`` to region ids (int array)."""
        raise NotImplementedError

    def centroid_distances(self) -> np.ndarray:
        """Pairwise centroid distance matrix (km)."""
        c = self.centroids
        deltas = c[:, None, :] - c[None, :, :]
        return np.sqrt((deltas ** 2).sum(axis=-1))


class SeededPartition(Partition):
    """Voronoi-style partition: each point belongs to its nearest seed.

    Mimics irregular administrative partitions (taxizones, main-road
    cells).  Seeds can be given explicitly or sampled; an optional
    Lloyd-relaxation pass makes cells more evenly sized, as real
    administrative regions tend to be.
    """

    def __init__(self, seeds: np.ndarray, box: Optional[BoundingBox] = None):
        seeds = np.asarray(seeds, dtype=np.float64)
        if seeds.ndim != 2 or seeds.shape[1] != 2:
            raise ValueError(f"seeds must be (n, 2), got {seeds.shape}")
        if len(seeds) < 2:
            raise ValueError("need at least 2 seeds")
        self.seeds = seeds
        self.box = box
        self._centroids = seeds.copy()

    @classmethod
    def random(cls, box: BoundingBox, n_regions: int,
               rng: np.random.Generator,
               lloyd_iterations: int = 3) -> "SeededPartition":
        """Sample seeds uniformly and relax them with Lloyd iterations."""
        seeds = box.sample(rng, n_regions)
        for _ in range(lloyd_iterations):
            samples = box.sample(rng, max(4000, 60 * n_regions))
            owner = cls(seeds, box).assign(samples)
            for region in range(n_regions):
                mine = samples[owner == region]
                if len(mine):
                    seeds[region] = mine.mean(axis=0)
        return cls(seeds, box)

    @property
    def n_regions(self) -> int:
        return len(self.seeds)

    @property
    def centroids(self) -> np.ndarray:
        return self._centroids

    def assign(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        flat = points.reshape(-1, 2)
        d2 = ((flat[:, None, :] - self.seeds[None, :, :]) ** 2).sum(axis=-1)
        owner = np.argmin(d2, axis=1)
        return owner.reshape(points.shape[:-1])
