"""Proximity matrices capturing spatial correlations among regions.

The advanced framework models the origin regions and the destination
regions as two graphs (paper §V-A1).  Following the thresholded Gaussian
kernel the paper adopts (its reference [38]), the edge weight between
regions ``i`` and ``j`` is::

    W[i, j] = exp(-dist(i, j)^2 / sigma^2)   if dist(i, j) <= alpha
            = 0                              otherwise

where ``dist`` is the Euclidean distance between region centroids (km),
``sigma`` controls kernel bandwidth and ``alpha`` the sparsification
threshold.  Figure 14 of the paper sweeps both parameters and finds the
framework insensitive to them; ``benchmarks/test_fig14_proximity.py``
reproduces that sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProximityConfig:
    """Parameters of the thresholded Gaussian proximity kernel.

    Attributes
    ----------
    sigma:
        Kernel bandwidth (km).  Larger values flatten the kernel, making
        distant regions look more similar.
    alpha:
        Distance threshold (km) beyond which regions are disconnected.
    """

    sigma: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def pairwise_distances(centroids: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between region centroids ``(N, 2)``."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or centroids.shape[1] != 2:
        raise ValueError(
            f"centroids must have shape (N, 2), got {centroids.shape}")
    deltas = centroids[:, None, :] - centroids[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=-1))


def proximity_matrix(centroids: np.ndarray,
                     config: ProximityConfig = ProximityConfig()) -> np.ndarray:
    """Build the thresholded Gaussian proximity matrix ``W``.

    The diagonal is zeroed: self-loops carry no information for either the
    graph Laplacian (they cancel in ``D - W``) or the matching-based
    coarsening.
    """
    distances = pairwise_distances(centroids)
    weights = np.exp(-(distances ** 2) / (config.sigma ** 2))
    weights[distances > config.alpha] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def ensure_connected(weights: np.ndarray,
                     distances: np.ndarray = None) -> np.ndarray:
    """Guarantee every node has at least one neighbour.

    Isolated nodes break both the coarsening (nothing to match with) and
    the smoothness prior.  Any isolated node is connected to its nearest
    other node with a small positive weight.
    """
    weights = weights.copy()
    n = weights.shape[0]
    if distances is None:
        distances = np.ones_like(weights)
        np.fill_diagonal(distances, np.inf)
    degree = weights.sum(axis=1)
    floor = weights[weights > 0].min() if (weights > 0).any() else 1.0
    for i in np.flatnonzero(degree == 0):
        masked = distances[i].copy()
        masked[i] = np.inf
        j = int(np.argmin(masked))
        weights[i, j] = weights[j, i] = floor
    return weights


def build_proximity(centroids: np.ndarray,
                    config: ProximityConfig = ProximityConfig()) -> np.ndarray:
    """Proximity matrix with the connectivity guarantee applied."""
    distances = pairwise_distances(centroids)
    return ensure_connected(proximity_matrix(centroids, config), distances)
