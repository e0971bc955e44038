"""Dirichlet energy: the graph-smoothness norm used by the AF loss.

The advanced framework regularizes the predicted factor tensors with the
Dirichlet norm under the proximity matrix (paper Eq. 11): nearby regions
should carry similar latent features.  For a signal ``x`` with nodes on
one axis, the energy is ``x^T L x`` summed over all remaining axes, which
equals ``1/2 * sum_ij W_ij (x_i - x_j)^2``.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.tensor import Tensor
from .laplacian import laplacian


def dirichlet_energy(x: Tensor, weights: np.ndarray,
                     node_axis: int = 0) -> Tensor:
    """Differentiable Dirichlet energy of ``x`` on the graph ``weights``.

    Parameters
    ----------
    x:
        Signal tensor; ``node_axis`` indexes graph nodes.
    weights:
        Symmetric adjacency/proximity matrix.
    node_axis:
        Axis of ``x`` holding the node dimension.

    Returns
    -------
    Scalar tensor ``sum(x^T L x)`` over all feature axes.  The Laplacian
    is a constant tensor in the library dtype, so the gradient stays in
    that dtype.  ``L·1 = 0``, so the signal is centred over its nodes
    first: in float32 a constant signal would otherwise read round-off,
    not zero.
    """
    lap = Tensor(laplacian(weights))
    axis = node_axis % x.ndim
    if x.shape[axis] != lap.shape[0]:
        raise ValueError(
            f"signal has {x.shape[axis]} nodes on axis {axis}, graph has "
            f"{lap.shape[0]}")
    if axis != 0:
        x = x.transpose([axis] + [i for i in range(x.ndim) if i != axis])
    flat = x.reshape(x.shape[0], -1)
    flat = flat - flat.mean(axis=0, keepdims=True)
    return (flat * lap.matmul(flat)).sum()


def dirichlet_energy_numpy(x: np.ndarray, weights: np.ndarray,
                           node_axis: int = 0) -> float:
    """Non-differentiable reference implementation (for tests/metrics)."""
    x = np.moveaxis(np.asarray(x, dtype=np.float64), node_axis, 0)
    flat = x.reshape(x.shape[0], -1)
    lap = laplacian(weights)
    return float((flat * (lap @ flat)).sum())
