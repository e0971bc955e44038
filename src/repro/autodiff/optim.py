"""Optimizers and learning-rate schedules.

The paper trains with Adam (initial lr 0.001) and decays the learning rate
by 0.8 every 5 epochs (paper §VI-A5); :class:`StepDecay` implements exactly
that schedule.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .module import Parameter


def _check_slots(kind: str, saved: List[np.ndarray],
                 parameters: List[Parameter]) -> None:
    """Validate per-parameter state arrays against the live parameters."""
    if len(saved) != len(parameters):
        raise ValueError(
            f"{kind} state has {len(saved)} slots for "
            f"{len(parameters)} parameters")
    for i, (array, parameter) in enumerate(zip(saved, parameters)):
        if np.shape(array) != parameter.data.shape:
            raise ValueError(
                f"{kind} slot {i} shape {np.shape(array)} does not match "
                f"parameter shape {parameter.data.shape}")


class Optimizer:
    """Base optimizer: holds parameters and the current learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None

    # -- serialization -------------------------------------------------
    def state_dict(self) -> Dict:
        """Mutable optimizer state (not the parameters themselves)."""
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state saved by :meth:`state_dict`."""
        self.lr = float(state["lr"])


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba 2015) with bias correction."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        # Bias corrections folded into scalars so the per-parameter work
        # is a handful of in-place array ops:
        #   lr·(m/bias1)/(sqrt(v/bias2)+eps)
        #     = (lr/bias1)·m / (sqrt(v)/sqrt(bias2) + eps)
        step_size = self.lr / bias1
        inv_sqrt_bias2 = 1.0 / np.sqrt(bias2)
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            g2 = grad * grad
            g2 *= (1.0 - self.beta2)
            v += g2
            denom = np.sqrt(v)
            denom *= inv_sqrt_bias2
            denom += self.eps
            update = np.divide(m, denom, out=g2)
            update *= step_size
            parameter.data -= update

    def state_dict(self) -> Dict:
        return {"lr": self.lr, "t": self._t,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        _check_slots("Adam m", state["m"], self.parameters)
        _check_slots("Adam v", state["v"], self.parameters)
        self._t = int(state["t"])
        self._m = [np.array(m, dtype=p.data.dtype)
                   for m, p in zip(state["m"], self.parameters)]
        self._v = [np.array(v, dtype=p.data.dtype)
                   for v, p in zip(state["v"], self.parameters)]


def clip_grad_norm(parameters: Iterable[Parameter],
                   max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm.  Standard guard against exploding
    recurrent gradients.
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum())
                              for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad *= scale
    return total


class StepDecay:
    """Multiply the optimizer's lr by ``factor`` every ``every`` epochs.

    With ``factor=0.8, every=5`` this is the paper's published schedule.
    """

    def __init__(self, optimizer: Optimizer, factor: float = 0.8,
                 every: int = 5, min_lr: float = 1e-6):
        self.optimizer = optimizer
        self.factor = factor
        self.every = every
        self.min_lr = min_lr
        self._initial_lr = optimizer.lr
        self._epoch = 0

    def step(self) -> float:
        """Advance one epoch; returns the (possibly updated) lr."""
        self._epoch += 1
        drops = self._epoch // self.every
        self.optimizer.lr = max(self._initial_lr * self.factor ** drops,
                                self.min_lr)
        return self.optimizer.lr

    @property
    def epoch(self) -> int:
        return self._epoch

    def scale_lr(self, factor: float) -> float:
        """Permanently scale the whole schedule by ``factor``.

        Rescales both the current lr and the schedule's base, so the
        change survives future :meth:`step` calls (which recompute from
        the base) and checkpoint round-trips (the base is serialized).
        Used by the trainer's ``halve_lr`` non-finite-gradient policy.
        """
        self._initial_lr *= factor
        self.optimizer.lr = max(self.optimizer.lr * factor, self.min_lr)
        return self.optimizer.lr

    # -- serialization -------------------------------------------------
    def state_dict(self) -> Dict:
        """JSON-safe snapshot of the schedule position and hyper-params."""
        return {"epoch": self._epoch, "initial_lr": self._initial_lr,
                "factor": self.factor, "every": self.every,
                "min_lr": self.min_lr}

    def load_state_dict(self, state: Dict) -> None:
        """Restore a snapshot; also re-applies the lr for that epoch."""
        self._epoch = int(state["epoch"])
        self._initial_lr = float(state["initial_lr"])
        self.factor = float(state["factor"])
        self.every = int(state["every"])
        self.min_lr = float(state["min_lr"])
        drops = self._epoch // self.every
        self.optimizer.lr = max(self._initial_lr * self.factor ** drops,
                                self.min_lr)
