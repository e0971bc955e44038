"""Differentiable Cheby-Net graph convolution and cluster-aware pooling.

:class:`ChebConv` implements the paper's Eq. 5: ``Q`` filters, each a
vector of ``S`` Chebyshev coefficients per input channel, summed over
input channels, plus bias and nonlinearity (the nonlinearity is left to
the caller so gates can pick sigmoid/tanh).

:class:`GraphPool` implements the paper's geometrical pooling (§V-A2): the
signal is permuted into cluster order (computed by
:mod:`repro.graph.coarsening`) and pooled with non-overlapping windows so
each pooled value summarizes one spatial cluster of regions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import init, ops
from ..autodiff.module import Module, Parameter
from ..autodiff.tensor import Tensor
from .coarsening import Coarsening
from .laplacian import scaled_laplacian


class ChebConv(Module):
    """Chebyshev-polynomial spectral graph convolution.

    Parameters
    ----------
    in_channels, out_channels:
        Signal channels before/after the convolution (the paper's K and Q).
    order:
        Number of Chebyshev terms ``S`` (the paper's filter size).
    weights:
        Proximity/adjacency matrix of the graph the signal lives on.
    rng:
        Generator for weight initialization.
    lambda_max:
        Optional precomputed top Laplacian eigenvalue.

    Input/output
    ------------
    ``x`` of shape ``(..., N, in_channels)`` → ``(..., N, out_channels)``.
    """

    def __init__(self, in_channels: int, out_channels: int, order: int,
                 weights: np.ndarray, rng: np.random.Generator,
                 lambda_max: Optional[float] = None,
                 normalized: bool = False):
        super().__init__()
        if order < 1:
            raise ValueError(f"Chebyshev order must be >= 1, got {order}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.order = order
        self._scaled_lap = Tensor(
            scaled_laplacian(weights, lambda_max=lambda_max,
                             normalized=normalized))
        self.weight = Parameter(init.xavier_uniform(
            (in_channels * order, out_channels), rng,
            gain=1.0 / np.sqrt(order)))
        self.bias = Parameter(np.zeros(out_channels))

    @property
    def n_nodes(self) -> int:
        return self._scaled_lap.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError(
                f"ChebConv expects (batch, N, C) input, got {x.shape}")
        if x.shape[-2] != self.n_nodes:
            raise ValueError(
                f"signal has {x.shape[-2]} nodes, graph has {self.n_nodes}")
        if x.shape[-1] != self.in_channels:
            raise ValueError(
                f"signal has {x.shape[-1]} channels, expected "
                f"{self.in_channels}")
        # Node-major (N, B·C), so each Chebyshev term is one Laplacian
        # GEMM for every slice; the terms stack into feature column
        # c·S + s, the weight's row layout, so one GEMM mixes channels.
        batch, n, channels = x.shape
        lap = self._scaled_lap
        terms = [x.transpose((1, 0, 2)).reshape(n, batch * channels)]
        if self.order > 1:
            terms.append(lap.matmul(terms[0]))
        for _ in range(2, self.order):
            terms.append(2.0 * lap.matmul(terms[-1]) - terms[-2])
        features = ops.stack(terms, axis=-1).reshape(
            n * batch, channels * self.order)
        out = features.matmul(self.weight).reshape(
            n, batch, self.out_channels)
        return out.transpose((1, 0, 2)) + self.bias


class GraphPool(Module):
    """Cluster-aware pooling over the node axis.

    The permutation and fake-node layout come from a
    :class:`~repro.graph.coarsening.Coarsening`.  ``levels`` selects how
    many matching levels to pool over, i.e. pooling size ``p = 2**levels``.
    Mean pooling divides by the number of *real* nodes per cluster so fake
    (zero) nodes do not bias the average.
    """

    def __init__(self, coarsening: Coarsening, levels: int,
                 start_level: int = 0, node_axis: int = -2):
        super().__init__()
        if levels < 1 or start_level < 0 \
                or start_level + levels > coarsening.levels:
            raise ValueError(
                f"pooling levels [{start_level}, {start_level + levels}] "
                f"outside coarsening depth {coarsening.levels}")
        self.levels = levels
        self.start_level = start_level
        self.stride = 2 ** levels
        self.node_axis = node_axis
        self._coarsening = coarsening
        self._n_real = coarsening.n_original
        if start_level == 0:
            # Input is in original node order: pad + permute, then pool.
            self._perm = np.asarray(coarsening.perm, dtype=np.intp)
            self._in_size = coarsening.n_original
            self._n_padded = len(self._perm)
            is_real = (self._perm < self._n_real).astype(np.float64)
        else:
            # Input already in the coarsened (cluster) order of this level.
            self._perm = None
            self._in_size = coarsening.graphs[start_level].shape[0]
            self._n_padded = self._in_size
            is_real = coarsening.real_mask[start_level].astype(np.float64)
        counts = is_real.reshape(-1, self.stride).sum(axis=1)
        # Clusters made purely of fake nodes pool to zero; avoid 0/0.
        self._mean_scale = np.divide(self.stride, counts,
                                     out=np.zeros_like(counts),
                                     where=counts > 0)

    @property
    def output_size(self) -> int:
        return self._n_padded // self.stride

    def forward(self, x: Tensor) -> Tensor:
        axis = self.node_axis % x.ndim
        if x.shape[axis] != self._in_size:
            raise ValueError(
                f"signal has {x.shape[axis]} nodes, expected {self._in_size}")
        if self._perm is not None:
            x = ops.pad_axis(x, axis, 0, self._n_padded - self._in_size)
            x = ops.take_axis(x, self._perm, axis)
        pooled = ops.mean_pool_axis(x, axis, self.stride)
        shape = [1] * x.ndim
        shape[axis] = self.output_size
        return pooled * self._mean_scale.reshape(shape)
