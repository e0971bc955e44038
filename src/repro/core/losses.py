"""Training losses of the two frameworks.

* :func:`masked_frobenius` — squared error on observed cells only.  The
  ground-truth future tensors are themselves sparse, so errors are
  computed under the indication tensor Ω (paper Eq. 4).
* :func:`bf_loss` — Eq. 4: masked data term + Frobenius regularizers on
  the predicted factor tensors.
* :func:`af_loss` — Eq. 11: masked data term + *Dirichlet-norm*
  regularizers, pulling latent features of spatially-adjacent regions
  together under the two proximity graphs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import ops
from ..autodiff.tensor import Tensor
from ..graph.energy import dirichlet_energy


def masked_frobenius(prediction: Tensor, truth: np.ndarray,
                     mask: np.ndarray) -> Tensor:
    """Mean squared error over observed cells.

    ``prediction`` is ``(..., N, N', K)``; ``truth`` matches; ``mask`` is
    ``(..., N, N')``.  Normalizing by the observed-cell count (not the
    tensor size) keeps the loss scale independent of sparsity.

    Evaluates as one fused graph node (see
    ``ops.fused_masked_frobenius``).
    """
    return ops.fused_masked_frobenius(prediction, truth, mask)


def factor_frobenius(factors: Tensor) -> Tensor:
    """Mean squared magnitude of a factor tensor (BF regularizer)."""
    return (factors * factors).sum() * (1.0 / factors.size)


def bf_loss(prediction: Tensor, truth: np.ndarray, mask: np.ndarray,
            r_factors: Tensor, c_factors: Tensor,
            lambda_r: float = 1e-4, lambda_c: float = 1e-4) -> Tensor:
    """Basic-framework loss (paper Eq. 4)."""
    loss = masked_frobenius(prediction, truth, mask)
    if lambda_r:
        loss = loss + lambda_r * factor_frobenius(r_factors)
    if lambda_c:
        loss = loss + lambda_c * factor_frobenius(c_factors)
    return loss


def factor_dirichlet(factors: Tensor, weights: np.ndarray,
                     node_axis: int) -> Tensor:
    """Mean Dirichlet energy of a factor tensor over its region axis."""
    energy = dirichlet_energy(factors, weights, node_axis=node_axis)
    return energy * (1.0 / factors.size)


def af_loss(prediction: Tensor, truth: np.ndarray, mask: np.ndarray,
            r_factors: Tensor, c_factors: Tensor,
            origin_weights: np.ndarray, dest_weights: np.ndarray,
            lambda_r: float = 1e-4, lambda_c: float = 1e-4,
            r_node_axis: Optional[int] = None,
            c_node_axis: Optional[int] = None) -> Tensor:
    """Advanced-framework loss (paper Eq. 11).

    The data term is the masked Frobenius error; the factor regularizers
    are Dirichlet norms under the origin graph (for ``R̂``, whose region
    axis indexes origins) and the destination graph (for ``Ĉ``).

    ``r_factors`` is ``(..., N, beta, K)`` (node axis -3 by default);
    ``c_factors`` is ``(..., beta, N', K)`` (node axis -2 by default).
    """
    loss = masked_frobenius(prediction, truth, mask)
    if lambda_r:
        axis = r_node_axis if r_node_axis is not None else r_factors.ndim - 3
        loss = loss + lambda_r * factor_dirichlet(
            r_factors, origin_weights, axis)
    if lambda_c:
        axis = c_node_axis if c_node_axis is not None else c_factors.ndim - 2
        loss = loss + lambda_c * factor_dirichlet(
            c_factors, dest_weights, axis)
    return loss
