"""Spatial/graph substrate: proximity graphs, ChebNet, coarsening, pooling.

The advanced framework models origin regions and destination regions as
two separate graphs.  This package provides everything the dual-stage
graph machinery needs:

* :func:`build_proximity` — thresholded Gaussian proximity matrices
  (parameters α, σ of the paper's Fig. 14 sweep).
* :func:`scaled_laplacian` / :func:`chebyshev_basis` — spectral machinery.
* :class:`ChebConv` — the paper's Eq. 5 graph convolution.
* :func:`coarsen_graph` / :class:`GraphPool` — Graclus-style coarsening
  and the cluster-aware "geometrical pooling" of §V-A2.
* :func:`dirichlet_energy` — the smoothness norm of the AF loss (Eq. 11).
* :func:`plan_shards` — Graclus-cluster shard plans with halo exchange
  lists for metro-scale sharded execution (see docs/SHARDING.md).
"""

from .chebconv import ChebConv, GraphPool
from .coarsening import (Coarsening, coarsen_adjacency, coarsen_graph,
                         heavy_edge_matching, naive_coarsening)
from .energy import dirichlet_energy, dirichlet_energy_numpy
from .laplacian import (chebyshev_basis, laplacian, max_eigenvalue,
                        normalized_laplacian, scaled_laplacian)
from .proximity import (ProximityConfig, build_proximity, ensure_connected,
                        pairwise_distances, proximity_matrix)
from .sharding import Shard, ShardPlan, chebyshev_hops, plan_shards

__all__ = [
    "ProximityConfig", "proximity_matrix", "build_proximity",
    "ensure_connected", "pairwise_distances",
    "laplacian", "normalized_laplacian", "scaled_laplacian",
    "max_eigenvalue", "chebyshev_basis",
    "ChebConv", "GraphPool",
    "Coarsening", "coarsen_graph", "coarsen_adjacency",
    "heavy_edge_matching", "naive_coarsening",
    "dirichlet_energy", "dirichlet_energy_numpy",
    "Shard", "ShardPlan", "plan_shards", "chebyshev_hops",
]
