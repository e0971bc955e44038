"""Temporal attention over encoder states (the paper's outlook, §VII).

The paper's future-work section proposes "considering the information at
different timestamps differently, e.g., using attention networks".  This
module implements that extension: a Luong-style attention decoder that,
at every forecast step, scores all encoder hidden states against the
current decoder state and mixes them into the output projection —
instead of relying on the last encoder state alone.

``AttentiveSeq2Seq`` is a drop-in replacement for
:class:`repro.autodiff.rnn.Seq2Seq`; ``BasicFramework`` accepts
``attention=True`` to use it for both factor sequences.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import init, ops
from ..autodiff.module import Module, Parameter
from ..autodiff.rnn import GRU
from ..autodiff.tensor import Tensor


class TemporalAttention(Module):
    """Dot-product attention of a query state over encoder states.

    Scores are ``softmax(q W_a e_t / sqrt(d))`` over encoder steps; the
    output is the probability-weighted mix of encoder states.
    """

    def __init__(self, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.w_attend = Parameter(
            init.xavier_uniform((hidden_size, hidden_size), rng))
        self._scale = 1.0 / np.sqrt(hidden_size)

    def forward(self, query: Tensor, encoder_states: Tensor) -> Tensor:
        """``query (B, H)``, ``encoder_states (B, s, H)`` → ``(B, H)``."""
        projected = query.matmul(self.w_attend)          # (B, H)
        scores = (encoder_states
                  * projected.expand_dims(1)).sum(axis=-1)   # (B, s)
        weights = ops.softmax(scores * self._scale, axis=-1)
        return (encoder_states * weights.expand_dims(-1)).sum(axis=1)


class AttentiveSeq2Seq(Module):
    """Encoder–decoder GRU with temporal attention at each decode step.

    The decoder state is concatenated with the attention context before
    the output projection, so time steps that resemble the current
    traffic state contribute more to each forecast.
    """

    def __init__(self, input_size: int, hidden_size: int, output_size: int,
                 rng: np.random.Generator, num_layers: int = 1):
        super().__init__()
        self.encoder = GRU(input_size, hidden_size, rng, num_layers)
        self.decoder = GRU(output_size, hidden_size, rng, num_layers)
        self.attention = TemporalAttention(hidden_size, rng)
        self.proj_weight = Parameter(
            init.xavier_uniform((2 * hidden_size, output_size), rng))
        self.proj_bias = Parameter(np.zeros(output_size))
        self.input_size = input_size
        self.output_size = output_size

    def forward(self, history: Tensor, horizon: int) -> Tensor:
        """``(B, s, input)`` → ``(B, horizon, output)``."""
        encoder_outputs, states = self.encoder(history)
        batch = history.shape[0]
        if self.input_size == self.output_size:
            step_input = history[:, -1]
        else:
            step_input = Tensor(np.zeros((batch, self.output_size)))
        predictions = []
        for _ in range(horizon):
            layer_input = step_input
            for i, cell in enumerate(self.decoder.cells):
                states[i] = cell(layer_input, states[i])
                layer_input = states[i]
            context = self.attention(layer_input, encoder_outputs)
            combined = ops.concat([layer_input, context], axis=-1)
            step_input = combined.matmul(self.proj_weight) + self.proj_bias
            predictions.append(step_input)
        return ops.stack(predictions, axis=1)
