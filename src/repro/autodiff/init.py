"""Weight initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so every
model in the library is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape, rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    ``fan_in``/``fan_out`` are taken from the last two axes, which matches
    both dense weight matrices and per-filter Chebyshev coefficient banks.
    """
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape)
