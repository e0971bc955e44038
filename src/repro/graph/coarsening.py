"""Graclus-style graph coarsening and cluster-aware pooling order.

The paper's pooling stage (§V-A2, "geometrical pooling") requires that
consecutive nodes in the pooled ordering be spatial neighbours — pooling
regions 3 and 4 of Figure 1(b) together would mix non-adjacent regions.
We follow the classical ChebNet construction (Defferrard et al., the
paper's reference [32]):

1. repeatedly coarsen the proximity graph with Graclus heavy-edge
   matching, pairing each node with the neighbour that maximizes the
   normalized-cut score ``w_ij * (1/d_i + 1/d_j)``;
2. derive from the matching forest a permutation of the original nodes in
   which every aligned block of ``2^levels`` nodes is one spatial cluster,
   inserting disconnected "fake" nodes where matchings were incomplete;
3. pool the permuted signal with plain stride-``2^levels`` windows.

Fake nodes carry zero signal and zero adjacency, so with max pooling they
never win and with mean pooling they are excluded via a per-block count
correction handled by the pooling layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np


def heavy_edge_matching(weights: np.ndarray) -> np.ndarray:
    """One Graclus matching pass.

    Returns an array ``cluster`` of length N where ``cluster[i]`` is the
    id of the coarse node that ``i`` maps to.  Nodes are visited in order
    of increasing degree (the usual heuristic); each unmatched node is
    paired with the unmatched neighbour maximizing
    ``w_ij * (1/d_i + 1/d_j)``, or becomes a singleton if no unmatched
    neighbour exists.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    degree = weights.sum(axis=1)
    # Denormal degrees overflow under reciprocal; the safe divide keeps
    # isolated (or near-isolated) nodes at zero priority.
    inv_degree = np.divide(1.0, degree, out=np.zeros_like(degree),
                           where=degree > np.finfo(np.float64).tiny)
    order = np.argsort(degree, kind="stable")
    cluster = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for i in order:
        if cluster[i] >= 0:
            continue
        neighbours = np.flatnonzero(weights[i])
        neighbours = neighbours[cluster[neighbours] < 0]
        if neighbours.size:
            scores = weights[i, neighbours] * (
                inv_degree[i] + inv_degree[neighbours])
            j = neighbours[int(np.argmax(scores))]
            cluster[i] = cluster[j] = next_id
        else:
            cluster[i] = next_id
        next_id += 1
    return cluster


def coarsen_adjacency(weights: np.ndarray,
                      cluster: np.ndarray) -> np.ndarray:
    """Collapse matched node pairs, summing inter-cluster edge weights."""
    n_coarse = int(cluster.max()) + 1
    coarse = np.zeros((n_coarse, n_coarse))
    np.add.at(coarse, (cluster[:, None], cluster[None, :]), weights)
    np.fill_diagonal(coarse, 0.0)
    return coarse


def _compute_perm(parents: List[np.ndarray]) -> List[np.ndarray]:
    """Per-level orderings placing each parent's children consecutively.

    ``parents[k]`` maps level-``k`` nodes to level-``k+1`` nodes.  The
    returned list has one index array per level (finest first).  Indices
    beyond the level's real node count denote fake nodes.
    """
    if not parents:
        return []
    orderings = [np.arange(int(parents[-1].max()) + 1)]
    for parent in reversed(parents):
        fake = len(parent)
        layer = []
        for coarse_node in orderings[-1]:
            children = list(np.flatnonzero(parent == coarse_node))
            while len(children) < 2:
                children.append(fake)
                fake += 1
            layer.extend(children)
        orderings.append(np.asarray(layer, dtype=np.int64))
    return orderings[::-1]


def _perm_adjacency(weights: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Pad ``weights`` with disconnected fake nodes and permute by ``order``."""
    n = weights.shape[0]
    m = len(order)
    padded = np.zeros((m, m))
    padded[:n, :n] = weights
    return padded[np.ix_(order, order)]


@dataclass
class Coarsening:
    """Result of multi-level coarsening of a proximity graph.

    Attributes
    ----------
    graphs:
        Adjacency per level (finest first), padded with fake nodes and
        permuted so stride-2 pooling between consecutive levels is valid.
    perm:
        Permutation (with fake indices) applied to the *original* node
        order at the finest level; length ``graphs[0].shape[0]``.
    n_original:
        Number of real nodes at the finest level.
    real_mask:
        Boolean masks per level marking real (non-fake) node slots.
    """

    graphs: List[np.ndarray]
    perm: np.ndarray
    n_original: int
    real_mask: List[np.ndarray] = field(default_factory=list)

    @property
    def levels(self) -> int:
        return len(self.graphs) - 1


def naive_coarsening(weights: np.ndarray, levels: int) -> Coarsening:
    """Id-order coarsening — the ablation of cluster-aware pooling.

    Pairs node ``2i`` with node ``2i+1`` regardless of adjacency, which is
    exactly the pitfall the paper's §V-A2 example describes (pooling
    regions 3 and 4 of its Fig. 1(b) together although they are not
    neighbours).  Used by the ablation benchmark to quantify what the
    Graclus ordering buys.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    graphs = [weights.copy()]
    current = weights
    for _ in range(levels):
        m = current.shape[0]
        if m % 2:
            padded = np.zeros((m + 1, m + 1))
            padded[:m, :m] = current
            current = padded
            m += 1
        cluster = np.repeat(np.arange(m // 2), 2)
        current = coarsen_adjacency(current, cluster)
        graphs.append(current)
    # Rebuild each level's padded adjacency to match pooled sizes.
    sizes = [g.shape[0] for g in graphs]
    padded_sizes = [sizes[-1] * (2 ** (levels - k))
                    for k in range(levels)] + [sizes[-1]]
    fixed = []
    masks = []
    for g, target in zip(graphs, padded_sizes):
        out = np.zeros((target, target))
        out[:g.shape[0], :g.shape[0]] = g
        fixed.append(out)
        mask = np.zeros(target, dtype=bool)
        mask[:g.shape[0]] = True
        masks.append(mask)
    # Real-node mask at level 0 marks the n original nodes only.
    masks[0] = np.arange(padded_sizes[0]) < n
    return Coarsening(graphs=fixed, perm=np.arange(padded_sizes[0]),
                      n_original=n, real_mask=masks)


def coarsen_graph(weights: np.ndarray, levels: int) -> Coarsening:
    """Coarsen ``weights`` ``levels`` times and compute pooling orderings.

    After this, pooling the permuted level-0 signal with stride
    ``2**levels`` yields one value per level-``levels`` cluster, and
    ``graphs[k]`` is the correctly-ordered adjacency to convolve with
    after ``k`` stride-2 pools.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if levels == 0:
        return Coarsening(graphs=[weights.copy()],
                          perm=np.arange(n), n_original=n,
                          real_mask=[np.ones(n, dtype=bool)])
    raw_graphs = [weights]
    parents = []
    current = weights
    for _ in range(levels):
        cluster = heavy_edge_matching(current)
        current = coarsen_adjacency(current, cluster)
        parents.append(cluster)
        raw_graphs.append(current)
    orderings = _compute_perm(parents)
    graphs = [_perm_adjacency(g, order)
              for g, order in zip(raw_graphs, orderings)]
    masks = [np.asarray(order) < g.shape[0]
             for g, order in zip(raw_graphs, orderings)]
    return Coarsening(graphs=graphs, perm=np.asarray(orderings[0]),
                      n_original=n, real_mask=masks)
