"""Recurrent networks: the GRU cell and sequence-to-sequence.

The basic framework (paper §IV-C) forecasts the factor sequences with a
sequence-to-sequence GRU; the FC/RNN baseline uses the same machinery on
flattened OD tensors.  The advanced framework replaces the dense gates with
graph convolutions — that variant (CNRNN) lives in
:mod:`repro.core.cnrnn`, but it mirrors the gate structure defined here.
"""

from __future__ import annotations

import numpy as np

from . import init, ops
from .module import Module, Parameter
from .tensor import Tensor


class GRUCell(Module):
    """Gated recurrent unit cell.

    Implements the standard GRU update::

        r = sigmoid([h, x] W_r + b_r)        # reset gate
        u = sigmoid([h, x] W_u + b_u)        # update gate
        c = tanh([r * h, x] W_c + b_c)       # candidate state
        h' = u * h + (1 - u) * c

    matching the gate layout the paper adopts for both the seq2seq GRU
    (Eqs. in §IV-C) and — with graph-convolutional gates — the CNRNN
    (Eqs. 7–10).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        joint = input_size + hidden_size
        self.w_reset = Parameter(init.xavier_uniform((joint, hidden_size), rng))
        self.b_reset = Parameter(np.zeros(hidden_size))
        self.w_update = Parameter(init.xavier_uniform((joint, hidden_size), rng))
        self.b_update = Parameter(np.zeros(hidden_size))
        self.w_cand = Parameter(init.xavier_uniform((joint, hidden_size), rng))
        self.b_cand = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One step: inputs ``x (batch, input)``, state ``h (batch, hidden)``.

        The whole update — both concatenations, three gate matmuls,
        nonlinearities, and the state blend — runs as one fused graph
        node (:func:`repro.autodiff.ops.fused_gru_gates`).
        """
        return ops.fused_gru_gates(x, h, self.w_reset, self.b_reset,
                                   self.w_update, self.b_update,
                                   self.w_cand, self.b_cand)

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size)))


class Seq2Seq(Module):
    """Encoder–decoder GRU forecasting ``horizon`` future feature vectors.

    The encoder consumes the historical sequence; its final state seeds a
    decoder that rolls forward ``horizon`` steps.  Decoding starts from the
    last observed input (``go`` frame) and feeds back its own predictions,
    the standard inference-mode arrangement the frameworks rely on.  An
    output projection maps the decoder state to the target dimensionality.
    """

    def __init__(self, input_size: int, hidden_size: int, output_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.encoder_cell = GRUCell(input_size, hidden_size, rng)
        self.decoder_cell = GRUCell(output_size, hidden_size, rng)
        self.proj_weight = Parameter(
            init.xavier_uniform((hidden_size, output_size), rng))
        self.proj_bias = Parameter(np.zeros(output_size))
        self.input_size = input_size
        self.output_size = output_size

    def _project(self, h: Tensor) -> Tensor:
        return h.matmul(self.proj_weight) + self.proj_bias

    def forward(self, history: Tensor, horizon: int) -> Tensor:
        """Forecast ``horizon`` steps from ``history (batch, s, input)``.

        Returns ``(batch, horizon, output)``.
        """
        batch, steps = history.shape[0], history.shape[1]
        state = self.encoder_cell.initial_state(batch)
        for t in range(steps):
            state = self.encoder_cell(history[:, t], state)
        # GO frame: the most recent observation, projected if sizes differ.
        if self.input_size == self.output_size:
            step_input = history[:, -1]
        else:
            step_input = Tensor(np.zeros((batch, self.output_size)))
        predictions = []
        for _ in range(horizon):
            state = self.decoder_cell(step_input, state)
            step_input = self._project(state)
            predictions.append(step_input)
        return ops.stack(predictions, axis=1)

