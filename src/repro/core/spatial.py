"""Spatial factorization (AF stage 1): GCNN encoder per tensor slice.

Paper §V-A.  To build the origin-side factor tensor ``R``, the sparse
tensor is sliced by origin; each slice is a K-channel signal over the
*destination* proximity graph.  A stack of Cheby-Net convolutions and
cluster-aware graph poolings condenses each slice into a ``(β', K)``
feature block; concatenating over origins yields ``R ∈ R^{N×β'×K}``.  The
destination-side factor ``C`` uses the same machinery with the roles of
the graphs swapped.  A final linear projection maps the pooled size β'
to the configured rank β so both sides agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..autodiff.layers import Linear
from ..autodiff.module import Module
from ..autodiff.tensor import Tensor, _ensure_tensor
from ..graph.chebconv import ChebConv, GraphPool
from ..graph.coarsening import coarsen_graph, naive_coarsening
from . import shardexec


@dataclass(frozen=True)
class GCNNBlock:
    """One conv+pool stage: ``filters`` Cheby filters of ``order`` terms,
    followed by pooling over ``pool_levels`` matching levels
    (pool size ``2**pool_levels``)."""

    filters: int
    order: int
    pool_levels: int = 1

    def __post_init__(self):
        if self.filters < 1 or self.order < 1 or self.pool_levels < 0:
            raise ValueError(f"invalid GCNN block {self}")


DEFAULT_BLOCKS = (GCNNBlock(filters=16, order=3, pool_levels=1),
                  GCNNBlock(filters=8, order=3, pool_levels=1))


class SpatialFactorizer(Module):
    """GCNN encoder over one side's proximity graph.

    Parameters
    ----------
    graph_weights:
        Proximity matrix of the graph the slices live on (destination
        graph when producing ``R``, origin graph when producing ``C``).
    n_buckets:
        Input channels K.
    rank:
        Output latent size β (after the final projection).
    blocks:
        Conv+pool stages.  The channel count of the final stage is the
        feature count carried per pooled cluster; a 1×1 projection then
        maps it back to K channels, matching the paper's "eventually set
        Q = K".
    """

    def __init__(self, graph_weights: np.ndarray, n_buckets: int, rank: int,
                 rng: np.random.Generator,
                 blocks: Sequence[GCNNBlock] = DEFAULT_BLOCKS,
                 cluster_pooling: bool = True):
        super().__init__()
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("need at least one GCNN block")
        total_levels = sum(block.pool_levels for block in blocks)
        # cluster_pooling=False is the ablation of the paper's
        # geometrical pooling: nodes are paired by id order instead of
        # by spatial matching.
        build = coarsen_graph if cluster_pooling else naive_coarsening
        self._coarsening = build(np.asarray(graph_weights), total_levels)
        self.n_buckets = n_buckets
        self.rank = rank
        self.convs = []
        self.pools = []
        level = 0
        in_channels = n_buckets
        for block in blocks:
            # Level 0 signals are in the original node order (GraphPool
            # permutes on the way down); deeper levels use the permuted,
            # padded coarse graphs that match the pooled signal order.
            conv_graph = (np.asarray(graph_weights) if level == 0
                          else self._coarsening.graphs[level])
            self.convs.append(ChebConv(
                in_channels, block.filters, block.order, conv_graph, rng))
            if block.pool_levels > 0:
                self.pools.append(GraphPool(
                    self._coarsening, levels=block.pool_levels,
                    start_level=level))
                level += block.pool_levels
            else:
                self.pools.append(None)
            in_channels = block.filters
        self.to_buckets = Linear(in_channels, n_buckets, rng)
        pooled_size = (self.pools[-1].output_size
                       if self.pools[-1] is not None
                       else self._coarsening.graphs[level].shape[0])
        self.latent_proj = Linear(pooled_size, rank, rng)
        # Per-stage pooling constants for the node-major stage kernel
        # (ops._Pool), read by core/shardexec.py's chunk loop.
        self._pool_specs = [
            dict(stride=1, perm=None, inv_counts=None) if pool is None
            else dict(stride=pool.stride, perm=pool._perm,
                      inv_counts=pool._mean_scale / pool.stride)
            for pool in self.pools]

    def forward(self, slices: Tensor) -> Tensor:
        """Encode graph slices.

        ``slices`` is ``(B*, nodes, K)`` — any number of tensor slices
        flattened into the leading axis.  Returns ``(B*, rank, K)``.
        The slices run through stage 1's chunk loop as the origin rows
        of a one-sample batch, the same path the AF's stage 1 takes.
        """
        slices = _ensure_tensor(slices)
        if slices.ndim != 3:
            raise ValueError(f"SpatialFactorizer expects (batch, nodes, K) "
                             f"input, got shape {slices.shape}")
        return shardexec._side_node(
            slices.reshape((1,) + slices.shape), self, "r", slices.shape[0],
            shardexec._dense_forward, shardexec._DENSE_LABELS)


def factorize_tensor_batch(factorizer_r: SpatialFactorizer,
                           factorizer_c: SpatialFactorizer,
                           tensors: Tensor,
                           execution=None) -> Tuple[Tensor, Tensor]:
    """Apply both factorizers to a batch of OD tensors.

    ``tensors`` is ``(B, N, N', K)``.  Returns ``(R, C)`` with
    ``R = (B, N, β, K)`` (origin slices encoded over the destination
    graph) and ``C = (B, β, N', K)`` (destination slices encoded over the
    origin graph).  Each side runs as one graph node over cache-sized
    chunks of its slices (:func:`repro.core.shardexec.dense_factorize`).
    ``execution``, a :class:`repro.core.shardexec.ShardedExecution`, runs
    the same chunk loop shard by shard instead.
    """
    if execution is not None:
        return execution.factorize(factorizer_r, factorizer_c, tensors)
    return shardexec.dense_factorize(factorizer_r, factorizer_c, tensors)
