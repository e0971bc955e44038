"""CNRNN: gated recurrence with graph-convolutional gates (AF stage 2).

Paper §V-B, Eqs. 7–10: the structure of a GRU cell is kept, but every
dense gate transformation is replaced with a Cheby-Net graph convolution
over the side's proximity graph, so the recurrent state lives *on the
graph* — one feature vector per region — and spatial correlations are
preserved through time.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ops
from ..autodiff.module import Module
from ..autodiff.tensor import Tensor
from ..graph.chebconv import ChebConv


class CNRNNCell(Module):
    """Graph-convolutional GRU cell (paper Eqs. 7–10).

    States and inputs are graph signals ``(batch, N, channels)``; the
    reset gate S, update gate U and candidate state all come from
    Cheby-Net convolutions over the given proximity graph.
    """

    def __init__(self, graph_weights: np.ndarray, in_channels: int,
                 hidden_channels: int, order: int,
                 rng: np.random.Generator):
        super().__init__()
        self.in_channels = in_channels
        self.hidden_channels = hidden_channels
        joint = in_channels + hidden_channels
        self.conv_reset = ChebConv(joint, hidden_channels, order,
                                   graph_weights, rng)
        self.conv_update = ChebConv(joint, hidden_channels, order,
                                    graph_weights, rng)
        self.conv_cand = ChebConv(joint, hidden_channels, order,
                                  graph_weights, rng)
        self.n_nodes = self.conv_reset.n_nodes

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        # The whole step — Eqs. 7-10: concatenations, the three gate
        # graph convolutions, nonlinearities, and the state blend — is
        # one fused graph node.  All three gate convolutions share the
        # cell's (single) scaled Laplacian.
        return ops.fused_cnrnn_cell(
            self.conv_reset._scaled_lap, x, h,
            self.conv_reset.weight, self.conv_reset.bias,
            self.conv_update.weight, self.conv_update.bias,
            self.conv_cand.weight, self.conv_cand.bias,
            self.conv_reset.order)

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.n_nodes, self.hidden_channels)))


class GraphSeq2Seq(Module):
    """Encoder–decoder CNRNN forecasting graph-signal sequences.

    Mirrors :class:`repro.autodiff.rnn.Seq2Seq` with CNRNN cells: the
    encoder consumes ``(B, s, N, C)`` histories, the decoder rolls out
    ``h`` future signals, and a Cheby-Net projection maps the hidden
    graph state to the output channels.
    """

    def __init__(self, graph_weights: np.ndarray, in_channels: int,
                 hidden_channels: int, out_channels: int, order: int,
                 rng: np.random.Generator):
        super().__init__()
        self.encoder_cell = CNRNNCell(graph_weights, in_channels,
                                      hidden_channels, order, rng)
        self.decoder_cell = CNRNNCell(graph_weights, out_channels,
                                      hidden_channels, order, rng)
        self.proj = ChebConv(hidden_channels, out_channels, order,
                             graph_weights, rng)
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(self, history: Tensor, horizon: int) -> Tensor:
        """Forecast: ``(B, s, N, C_in)`` → ``(B, h, N, C_out)``."""
        if history.ndim != 4:
            raise ValueError(
                f"history must be (B, s, N, C), got {history.shape}")
        batch, steps = history.shape[0], history.shape[1]
        state = self.encoder_cell.initial_state(batch)
        for t in range(steps):
            state = self.encoder_cell(history[:, t], state)
        if self.in_channels == self.out_channels:
            step_input = history[:, -1]
        else:
            step_input = Tensor(np.zeros(
                (batch, history.shape[2], self.out_channels)))
        predictions = []
        for _ in range(horizon):
            state = self.decoder_cell(step_input, state)
            step_input = self.proj(state)
            predictions.append(step_input)
        return ops.stack(predictions, axis=1)
