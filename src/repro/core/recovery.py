"""Recovery stage: factor tensors → full OD stochastic speed tensors.

Paper §IV-D: for each future interval, the predicted factor tensors
``R̂ ∈ R^{N×β×K}`` and ``Ĉ ∈ R^{β×N'×K}`` are multiplied per speed bucket
and every OD cell's K raw scores are normalized with a softmax, yielding a
*full* tensor whose every cell is a valid histogram.

:func:`publish` is the boundary where a forecast leaves the program.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ops
from ..autodiff.tensor import Tensor


def recover(r_factors: Tensor, c_factors: Tensor) -> Tensor:
    """Recover full OD tensors from factor tensors.

    Parameters
    ----------
    r_factors:
        ``(..., N, beta, K)`` origin-side factors.
    c_factors:
        ``(..., beta, N', K)`` destination-side factors.

    Returns
    -------
    ``(..., N, N', K)`` tensor; softmax over the bucket axis guarantees
    each cell is a probability histogram.
    """
    if r_factors.shape[-1] != c_factors.shape[-1]:
        raise ValueError(
            f"bucket axes differ: {r_factors.shape[-1]} vs "
            f"{c_factors.shape[-1]}")
    if r_factors.shape[-2] != c_factors.shape[-3]:
        raise ValueError(
            f"latent ranks differ: R has {r_factors.shape[-2]}, C has "
            f"{c_factors.shape[-3]}")
    # One fused node: per-bucket batched matmul + bucket-axis softmax
    # with the closed-form softmax VJP.
    return ops.fused_softmax_recovery(r_factors, c_factors)


def publish(prediction: np.ndarray) -> np.ndarray:
    """A recovered forecast as the program hands it out: float64 cells
    that each sum to 1 within float64 round-off.

    The softmax ran in the library dtype, and a float32 cell sums to 1
    only within ~1e-7; dividing the float64 cast by its bucket sum
    restores the histogram contract whatever dtype the model computed
    in.  Both sides of every served-vs-offline comparison publish
    through here, so they stay bitwise equal.
    """
    published = prediction.astype(np.float64)
    published /= published.sum(axis=-1, keepdims=True)
    return published
