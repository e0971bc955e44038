"""Numpy-based reverse-mode autodiff and neural-network substrate.

The deep-learning stack the paper builds on, reimplemented from scratch:

* :class:`Tensor` — reverse-mode automatic differentiation.
* :mod:`~repro.autodiff.ops` — differentiable functions (sigmoid, tanh,
  softmax, concat/stack, dropout, graph-pooling primitives, ...).
* :class:`Module` / :class:`Parameter` — network composition.
* :class:`Linear`, :class:`Dropout`, :class:`MLP` — dense layers.
* :class:`GRUCell` / :class:`Seq2Seq` — recurrence.
* :class:`Adam`, :class:`StepDecay` — optimization with the paper's
  published schedule (Adam, lr 0.001, x0.8 every 5 epochs).
* :func:`check_gradients` — numerical verification used by the tests.
"""

from . import init, ops
from .gradcheck import check_gradients, numerical_gradient
from .layers import (MLP, Activation, Dropout, Embedding, Linear,
                     Sequential)
from .module import Module, Parameter
from .optim import Adam, Optimizer, StepDecay, clip_grad_norm
from .profiler import OpProfiler, profile
from .rnn import GRUCell, Seq2Seq
from .tensor import (AnomalyError, Tensor, detect_anomaly, get_default_dtype,
                     ones, set_default_dtype, tensor, zeros)

__all__ = [
    "Tensor", "tensor", "zeros", "ones",
    "set_default_dtype", "get_default_dtype",
    "detect_anomaly", "AnomalyError",
    "ops", "init",
    "Module", "Parameter",
    "Linear", "Dropout", "Sequential", "Activation", "MLP", "Embedding",
    "GRUCell", "Seq2Seq",
    "Optimizer", "Adam", "StepDecay", "clip_grad_norm",
    "profile", "OpProfiler",
    "check_gradients", "numerical_gradient",
]
