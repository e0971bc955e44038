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
    Scalar tensor ``sum(x^T L x)`` over all feature axes, evaluated as a
    single fused graph node.
    """
    lap = laplacian(weights)
    axis = node_axis % x.ndim
    if x.shape[axis] != lap.shape[0]:
        raise ValueError(
            f"signal has {x.shape[axis]} nodes on axis {axis}, graph has "
            f"{lap.shape[0]}")
    moved_shape = None
    flat = lx = None

    def run() -> np.ndarray:
        nonlocal moved_shape, flat, lx
        moved = np.moveaxis(x.data, axis, 0)
        moved_shape = moved.shape
        flat = moved.reshape(moved.shape[0], -1)
        lx = lap @ flat
        return np.asarray((flat * lx).sum())

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # d(xᵀLx) = (L + Lᵀ)x; the graph Laplacian is symmetric but the
        # general adjoint costs the same here.  The float64 Laplacian
        # upcasts the product, so round back to x's dtype.
        dflat = (float(grad) * (lx + lap.T @ flat)).astype(
            x.data.dtype, copy=False)
        x._accumulate(np.moveaxis(
            dflat.reshape(moved_shape), 0, axis))

    return Tensor._make(run, (x,), backward)


def dirichlet_energy_numpy(x: np.ndarray, weights: np.ndarray,
                           node_axis: int = 0) -> float:
    """Non-differentiable reference implementation (for tests/metrics)."""
    x = np.moveaxis(np.asarray(x, dtype=np.float64), node_axis, 0)
    flat = x.reshape(x.shape[0], -1)
    lap = laplacian(weights)
    return float((flat * (lap @ flat)).sum())
