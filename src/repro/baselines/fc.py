"""FC/RNN deep baseline — paper §VI-A3(1), its reference [30].

A GRU encoder–decoder on the *flattened* OD tensors: an FC layer encodes
each sparse interval tensor, a seq2seq GRU captures temporal dynamics,
and an FC layer projects decoder states back to the full
``N × N' × K`` tensor, with a per-cell softmax producing histograms.
No factorization, no spatial structure — the ablation the frameworks are
measured against (the paper also labels this configuration "FC"/"RNN").
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..autodiff import ops
from ..autodiff.layers import Dropout, Linear
from ..autodiff.module import Module
from ..autodiff.rnn import Seq2Seq
from ..autodiff.tensor import Tensor


class FCBaseline(Module):
    """Flattened GRU encoder–decoder forecaster.

    Same call contract as the frameworks: ``forward(history, horizon)``
    returns ``(prediction, None, None)`` — it has no factor tensors.
    """

    def __init__(self, n_origins: int, n_destinations: int, n_buckets: int,
                 rng: np.random.Generator, encoder_dim: int = 16,
                 hidden_dim: int = 32, dropout: float = 0.2):
        super().__init__()
        self.n_origins = n_origins
        self.n_destinations = n_destinations
        self.n_buckets = n_buckets
        flat = n_origins * n_destinations * n_buckets
        self.encode = Linear(flat, encoder_dim, rng)
        self.drop = Dropout(dropout, rng)
        self.seq2seq = Seq2Seq(encoder_dim, hidden_dim, flat, rng)

    def forward(self, history: Union[np.ndarray, Tensor], horizon: int
                ) -> Tuple[Tensor, None, None]:
        x = history if isinstance(history, Tensor) else Tensor(history)
        if x.ndim != 5:
            raise ValueError(f"history must be (B, s, N, N', K), "
                             f"got shape {x.shape}")
        batch, steps = x.shape[0], x.shape[1]
        flat = x.reshape(batch, steps, -1)
        codes = self.drop(ops.relu(self.encode(flat)))
        future = self.seq2seq(codes, horizon)
        scores = future.reshape(batch, horizon, self.n_origins,
                                self.n_destinations, self.n_buckets)
        return ops.softmax(scores, axis=-1), None, None
