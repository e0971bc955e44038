"""Module/Parameter abstractions for building neural networks.

A :class:`Module` owns named :class:`Parameter` tensors and child modules
and exposes the usual conveniences: recursive parameter collection,
train/eval mode switching, zeroing gradients, and state-dict style
save/load of raw numpy weights.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a module."""

    def __init__(self, data, name: str = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all network components.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; those are discovered automatically for optimization and
    serialization.  Subclasses implement :meth:`forward`; calling the
    module invokes it.
    """

    def __init__(self):
        self._training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        """Put this module (and all children) in training mode."""
        for module in self.modules():
            module._training = True
        return self

    def eval(self) -> "Module":
        """Put this module (and all children) in evaluation mode."""
        for module in self.modules():
            module._training = False
        return self

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` for all owned weights.

        A parameter reachable through several attributes (weight tying)
        is yielded once, under the first name encountered, so optimizers
        don't double-step it and ``num_parameters`` doesn't double-count.
        """
        yield from self._named_parameters(prefix, set())

    def _named_parameters(self, prefix: str,
                          seen: set) -> Iterator[Tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if attr.startswith("_") and attr != "_modules":
                continue
            qualified = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield qualified, value
            elif isinstance(value, Module):
                yield from value._named_parameters(f"{qualified}.", seen)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_parameters(
                            f"{qualified}.{i}.", seen)
                    elif isinstance(item, Parameter):
                        if id(item) not in seen:
                            seen.add(id(item))
                            yield f"{qualified}.{i}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendant modules, each once."""
        yield from self._modules_impl(set())

    def _modules_impl(self, seen: set) -> Iterator["Module"]:
        if id(self) in seen:
            return
        seen.add(id(self))
        yield self
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._modules_impl(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._modules_impl(seen)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.grad = None

    def num_parameters(self) -> int:
        """Total number of scalar weights (the paper's '#Weights' column)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all weights, keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load weights saved by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}")
        for name, parameter in own.items():
            # Cast to the parameter's *existing* dtype: a float32 model
            # must stay float32 through early-stopping restore and
            # ``load_model``, and a float64 model must not silently
            # truncate to a narrower saved dtype.
            value = np.asarray(state[name], dtype=parameter.data.dtype)
            if value.shape != parameter.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {parameter.shape}")
            # Write through the existing array instead of rebinding, so
            # every alias of parameter.data sees the restored weights.
            if value is parameter.data:
                continue
            np.copyto(parameter.data, value)
