"""Standard dense layers built on the autodiff substrate."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import init, ops
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis of ``x``.

    Accepts inputs of any rank; the matmul broadcasts over leading axes,
    which is how the frameworks apply one projection to every time step or
    every graph slice at once.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout layer; identity in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.rate, self._rng, training=self.training)


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> Module:
        return self.steps[index]


class Activation(Module):
    """Wrap a functional activation (``ops.relu`` etc.) as a module."""

    def __init__(self, fn: Callable[[Tensor], Tensor]):
        super().__init__()
        self._fn = fn

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)


class MLP(Module):
    """Multi-layer perceptron with a shared hidden activation."""

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator,
                 activation: Callable[[Tensor], Tensor] = ops.relu,
                 dropout: float = 0.0,
                 output_activation: Optional[Callable[[Tensor], Tensor]] = None):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        steps: list = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            steps.append(Linear(n_in, n_out, rng))
            is_last = i == len(sizes) - 2
            if not is_last:
                steps.append(Activation(activation))
                if dropout > 0.0:
                    steps.append(Dropout(dropout, rng))
            elif output_activation is not None:
                steps.append(Activation(output_activation))
        self.net = Sequential(*steps)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class Embedding(Module):
    """Lookup table mapping integer ids to learned vectors.

    Gradients accumulate correctly for repeated ids (scatter-add).
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        if num_embeddings < 1 or embedding_dim < 1:
            raise ValueError("embedding table dimensions must be >= 1")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        scale = 1.0 / np.sqrt(embedding_dim)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(num_embeddings, embedding_dim)))

    def forward(self, ids) -> Tensor:
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu":
            raise TypeError(f"embedding ids must be integers, got "
                            f"{ids.dtype}")
        if (ids < 0).any() or (ids >= self.num_embeddings).any():
            raise IndexError("embedding id out of range")
        return self.weight[ids]
