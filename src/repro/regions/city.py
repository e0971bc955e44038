"""City models: region layouts mirroring the paper's two study areas.

The paper evaluates on Manhattan (67 taxizones) and central Chengdu
(79 main-road regions).  Real shapefiles are not redistributable here, so
each city is modelled as a seeded irregular partition with the same region
count and a geometry that preserves what the evaluation depends on:

* **Manhattan-like** — a long, narrow strip (≈ 3.2 km × 18 km), so many
  region pairs are far apart along one axis, and regions are relatively
  homogeneous (the paper credits this for NYC's lower errors).
* **Chengdu-like** — a roughly isotropic disc (≈ 9 km across, the second
  ring road), with a larger, more diverse area that makes traffic harder
  to forecast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.proximity import ProximityConfig, build_proximity
from .geometry import BoundingBox
from .partition import Partition, SeededPartition


@dataclass
class City:
    """A named city: partition plus spatial metadata.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"nyc"`` or ``"cd"``.
    partition:
        Region partition (implements assign/centroids).
    box:
        Bounding box of the study area (km).
    heterogeneity:
        How spatially diverse the traffic is (0 = uniform); the trip
        generator uses it to mimic the NYC-vs-Chengdu contrast.
    """

    name: str
    partition: Partition
    box: BoundingBox
    heterogeneity: float = 0.3

    @property
    def n_regions(self) -> int:
        return self.partition.n_regions

    @property
    def centroids(self) -> np.ndarray:
        return self.partition.centroids

    def centroid_distances(self) -> np.ndarray:
        return self.partition.centroid_distances()

    def proximity(self, config: ProximityConfig = None) -> np.ndarray:
        """Proximity matrix of the regions (thresholded Gaussian kernel)."""
        if config is None:
            config = self.default_proximity_config()
        return build_proximity(self.centroids, config)

    def default_proximity_config(self) -> ProximityConfig:
        """σ/α scaled to the city's size: neighbours within ~2 cells."""
        spacing = np.sqrt(self.box.area / self.n_regions)
        return ProximityConfig(sigma=1.5 * spacing, alpha=2.5 * spacing)


def manhattan_like(seed: int = 7, n_regions: int = 67) -> City:
    """Manhattan-style strip city with 67 taxizone-like regions."""
    rng = np.random.default_rng(seed)
    box = BoundingBox(0.0, 0.0, 3.2, 18.0)
    partition = SeededPartition.random(box, n_regions, rng,
                                       lloyd_iterations=4)
    return City(name="nyc", partition=partition, box=box,
                heterogeneity=0.25)


def chengdu_like(seed: int = 11, n_regions: int = 79) -> City:
    """Chengdu-style isotropic city with 79 main-road regions."""
    rng = np.random.default_rng(seed)
    box = BoundingBox(0.0, 0.0, 9.0, 9.0)
    partition = SeededPartition.random(box, n_regions, rng,
                                       lloyd_iterations=4)
    return City(name="cd", partition=partition, box=box,
                heterogeneity=0.55)


def metro_like(seed: int = 21, n_regions: int = 500) -> City:
    """Metro-scale city for the block-sparse sharding path.

    Ridesharing-scale OD forecasting needs hundreds to thousands of
    regions (see docs/SHARDING.md); at that granularity most OD pairs
    see no trips per interval, which is the regime the block-sparse
    sharded execution targets.  The extent grows with the region count
    so the per-region cell size stays city-like (~1.2 km across at the
    500-region default).
    """
    rng = np.random.default_rng(seed)
    extent = float(np.sqrt(n_regions) * 1.25)
    box = BoundingBox(0.0, 0.0, extent, extent)
    partition = SeededPartition.random(box, n_regions, rng,
                                       lloyd_iterations=2)
    return City(name="metro", partition=partition, box=box,
                heterogeneity=0.5)


def toy_city(seed: int = 3, n_regions: int = 12,
             extent_km: float = 4.0) -> City:
    """Small city for unit tests and quick examples."""
    rng = np.random.default_rng(seed)
    box = BoundingBox(0.0, 0.0, extent_km, extent_km)
    partition = SeededPartition.random(box, n_regions, rng,
                                       lloyd_iterations=2)
    return City(name="toy", partition=partition, box=box,
                heterogeneity=0.3)
