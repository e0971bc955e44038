"""Shard planning for metro-scale block-sparse factor computation.

The paper's evaluation tops out at 79 regions; ridesharing-scale OD
forecasting needs hundreds to thousands.  At that size the stage-1
factorization — one GCNN encoding per origin (and destination) slice —
no longer fits one dense computation comfortably, but the slices are
embarrassingly partitionable: each origin slice is an independent signal
over the *destination* graph, so any partition of the origins splits the
R-side work into independent shards (and symmetrically for C).

This module derives that partition from the same Graclus heavy-edge
matching the pooling stage already uses (:mod:`repro.graph.coarsening`):
repeatedly match-and-coarsen the proximity graph until at most
``n_shards`` clusters remain, then hand each worker one origin-cluster
subgraph.  Shards also carry a **halo** — the regions within ``hops``
proximity-graph hops of the owned set.  Chebyshev propagation of order
``p`` mixes information from up to ``p - 1`` hops away, so a worker that
ever convolves *along the sharded axis* (e.g. when exchanging factor
blocks for the C-side column stripes) must receive its halo regions'
data from the neighbouring shards; the plan records exactly which
regions those are and :meth:`ShardPlan.validate` checks them against a
breadth-first search.

The planner is pure geometry/graph bookkeeping — execution lives in
:mod:`repro.core.shardexec`, block storage in
:mod:`repro.histograms.blocksparse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .coarsening import coarsen_adjacency, heavy_edge_matching

__all__ = ["Shard", "ShardPlan", "plan_shards", "chebyshev_hops"]


def chebyshev_hops(orders: Sequence[int]) -> int:
    """Graph hops a stack of Chebyshev convolutions can propagate.

    A single order-``p`` convolution reaches ``p - 1`` hops; stacked
    stages add up.  This is the halo depth a sharded execution needs so
    cross-shard propagation along the sharded axis stays exact.
    """
    return int(sum(max(int(order) - 1, 0) for order in orders))


@dataclass(frozen=True)
class Shard:
    """One worker's slice of a sharded side.

    Attributes
    ----------
    index:
        Shard id, ``0 .. n_shards-1``.
    owned:
        Sorted original region ids this shard computes (disjoint across
        shards; together they cover every region).
    halo:
        Sorted region ids within ``hops`` proximity-graph hops of the
        owned set but owned by *other* shards — the regions whose data
        must be exchanged in before any cross-shard graph propagation
        along the sharded axis.
    """

    index: int
    owned: np.ndarray
    halo: np.ndarray

    @property
    def size(self) -> int:
        return int(self.owned.size)

    @property
    def halo_size(self) -> int:
        return int(self.halo.size)



def _bfs_reach(adjacency: np.ndarray, seed_mask: np.ndarray,
               hops: int) -> np.ndarray:
    """Regions reachable from ``seed_mask`` in at most ``hops`` hops."""
    reach = seed_mask.copy()
    for _ in range(int(hops)):
        grown = adjacency[:, reach].any(axis=1)
        new = reach | grown
        if np.array_equal(new, reach):
            break
        reach = new
    return reach


def _cluster_membership(weights: np.ndarray, n_shards: int) -> np.ndarray:
    """Graclus cluster id per node, at most ``n_shards`` clusters.

    Repeated heavy-edge matching roughly halves the cluster count per
    level, so the final count lands in ``(n_shards/2, n_shards]`` unless
    matching stalls (fully disconnected graphs), in which case leftover
    singletons are merged round-robin to force progress.
    """
    n = weights.shape[0]
    membership = np.arange(n, dtype=np.int64)
    current = np.asarray(weights, dtype=np.float64)
    while current.shape[0] > n_shards:
        cluster = heavy_edge_matching(current)
        if int(cluster.max()) + 1 == current.shape[0]:
            # No pair matched (edgeless graph): pair ids arbitrarily so
            # the loop still terminates.
            cluster = np.arange(current.shape[0], dtype=np.int64) // 2
        membership = cluster[membership]
        current = coarsen_adjacency(current, cluster)
    return membership


def _build_shards(weights: np.ndarray, n_shards: int,
                  hops: int) -> Tuple[Shard, ...]:
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    adjacency = weights != 0.0
    np.fill_diagonal(adjacency, False)
    membership = _cluster_membership(weights, min(n_shards, n))
    # Relabel clusters by their smallest member for a deterministic,
    # input-order-independent shard numbering.
    ids = np.unique(membership)
    ids = ids[np.argsort([int(np.flatnonzero(membership == i)[0])
                          for i in ids], kind="stable")]
    shards: List[Shard] = []
    for index, cluster_id in enumerate(ids):
        owned = np.flatnonzero(membership == cluster_id)
        owned_mask = np.zeros(n, dtype=bool)
        owned_mask[owned] = True
        reach = _bfs_reach(adjacency, owned_mask, hops)
        halo = np.flatnonzero(reach & ~owned_mask)
        shards.append(Shard(index=index, owned=owned, halo=halo))
    return tuple(shards)


@dataclass
class ShardPlan:
    """A validated two-sided shard layout for one city pair.

    ``origin_shards`` partition the origin regions (the R side's slice
    axis); ``dest_shards`` partition the destinations (the C side's).
    The two proximity matrices are retained so :meth:`validate` can
    re-derive the halos and prove the stored exchange structure is
    consistent with the graphs it claims to cover.
    """

    origin_shards: Tuple[Shard, ...]
    dest_shards: Tuple[Shard, ...]
    n_origins: int
    n_destinations: int
    hops: int
    origin_weights: np.ndarray = field(repr=False)
    dest_weights: np.ndarray = field(repr=False)

    @property
    def n_origin_shards(self) -> int:
        return len(self.origin_shards)

    @property
    def n_dest_shards(self) -> int:
        return len(self.dest_shards)

    # ------------------------------------------------------------------
    def row_blocks(self) -> List[np.ndarray]:
        """Origin-id block partition (for block-sparse OD storage)."""
        return [shard.owned for shard in self.origin_shards]

    def col_blocks(self) -> List[np.ndarray]:
        """Destination-id block partition."""
        return [shard.owned for shard in self.dest_shards]

    # ------------------------------------------------------------------
    def _validate_side(self, shards: Tuple[Shard, ...], n: int,
                       weights: np.ndarray, label: str) -> None:
        if not shards:
            raise ValueError(f"{label}: plan has no shards")
        owned_all = np.concatenate([s.owned for s in shards])
        if owned_all.size != n or \
                not np.array_equal(np.sort(owned_all), np.arange(n)):
            raise ValueError(
                f"{label}: owned sets must cover every region exactly "
                f"once (got {owned_all.size} assignments for {n} regions)")
        adjacency = np.asarray(weights) != 0.0
        np.fill_diagonal(adjacency, False)
        for shard in shards:
            if not np.array_equal(shard.owned, np.sort(shard.owned)) or \
                    np.unique(shard.owned).size != shard.owned.size:
                raise ValueError(
                    f"{label}: shard {shard.index} owned ids must be "
                    f"sorted and unique")
            if np.intersect1d(shard.owned, shard.halo).size:
                raise ValueError(
                    f"{label}: shard {shard.index} halo overlaps its "
                    f"owned set")
            owned_mask = np.zeros(n, dtype=bool)
            owned_mask[shard.owned] = True
            reach = _bfs_reach(adjacency, owned_mask, self.hops)
            expected = np.flatnonzero(reach & ~owned_mask)
            if not np.array_equal(shard.halo, expected):
                raise ValueError(
                    f"{label}: shard {shard.index} halo is inconsistent "
                    f"with a {self.hops}-hop neighbourhood "
                    f"({shard.halo_size} stored vs {expected.size} "
                    f"derived)")

    def validate(self) -> "ShardPlan":
        """Check the invariants the sharded executor relies on.

        Every region sits in exactly one shard per side; each halo is
        disjoint from its owned set and equals the ``hops``-hop
        proximity neighbourhood.  Raises ``ValueError`` on violation and
        returns ``self`` for chaining.
        """
        if self.hops < 0:
            raise ValueError("hops must be non-negative")
        self._validate_side(self.origin_shards, self.n_origins,
                            self.origin_weights, "origin side")
        self._validate_side(self.dest_shards, self.n_destinations,
                            self.dest_weights, "destination side")
        return self

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary for telemetry / benchmark reports."""
        def side(shards: Tuple[Shard, ...]) -> dict:
            sizes = [s.size for s in shards]
            halos = [s.halo_size for s in shards]
            return {"n_shards": len(shards), "sizes": sizes,
                    "max_size": max(sizes), "min_size": min(sizes),
                    "halo_sizes": halos, "max_halo": max(halos)}
        return {"hops": self.hops,
                "origin": side(self.origin_shards),
                "dest": side(self.dest_shards)}


def plan_shards(origin_weights: np.ndarray,
                dest_weights: Optional[np.ndarray] = None,
                n_shards: int = 4, hops: int = 2) -> ShardPlan:
    """Derive a validated :class:`ShardPlan` from proximity matrices.

    Parameters
    ----------
    origin_weights:
        Origin-side proximity matrix ``(N, N)``.
    dest_weights:
        Destination-side proximity ``(N', N')``; defaults to the origin
        matrix (square cities).
    n_shards:
        Upper bound on shards per side.  Graclus matching halves the
        cluster count per level, so the realized count lands in
        ``(n_shards/2, n_shards]``.
    hops:
        Halo depth — use :func:`chebyshev_hops` of the convolution
        orders that will propagate along the sharded axis.
    """
    origin_weights = np.asarray(origin_weights, dtype=np.float64)
    if origin_weights.ndim != 2 or \
            origin_weights.shape[0] != origin_weights.shape[1]:
        raise ValueError(
            f"origin_weights must be square, got {origin_weights.shape}")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if hops < 0:
        raise ValueError("hops must be non-negative")
    if dest_weights is None:
        dest_weights = origin_weights
    dest_weights = np.asarray(dest_weights, dtype=np.float64)
    if dest_weights.ndim != 2 or \
            dest_weights.shape[0] != dest_weights.shape[1]:
        raise ValueError(
            f"dest_weights must be square, got {dest_weights.shape}")
    plan = ShardPlan(
        origin_shards=_build_shards(origin_weights, n_shards, hops),
        dest_shards=_build_shards(dest_weights, n_shards, hops),
        n_origins=origin_weights.shape[0],
        n_destinations=dest_weights.shape[0],
        hops=int(hops),
        origin_weights=origin_weights,
        dest_weights=dest_weights)
    return plan.validate()
