"""Basic framework (BF): factorization → seq2seq GRU → recovery.

Paper §IV.  Each sparse OD tensor is encoded with a fully-connected layer
into a compact code (Table I's bottleneck design), one code per side; two
sequence-to-sequence GRUs forecast the future codes and project them to
the dense factor tensors ``R̂ ∈ R^{N×β×K}`` and ``Ĉ ∈ R^{β×N'×K}``; the
recovery stage multiplies the factors and softmax-normalizes each cell.
The whole pipeline trains end-to-end with the masked loss of Eq. 4.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..autodiff import ops
from ..autodiff.layers import Dropout, Linear
from ..autodiff.module import Module
from ..autodiff.rnn import Seq2Seq
from ..autodiff.tensor import Tensor
from ..contracts import (check_finite, check_shape_dtype,
                         get_contract_policy)
from .recovery import recover


class BasicFramework(Module):
    """End-to-end BF model.

    Parameters
    ----------
    n_origins, n_destinations, n_buckets:
        OD tensor dimensions (N, N', K).
    rank:
        Latent factorization rank β (the paper uses 5).
    encoder_dim:
        Width of the per-interval FC encoding fed to the GRUs (Table I
        uses a very small bottleneck; larger values trade weights for
        capacity).
    hidden_dim:
        GRU state size.
    dropout:
        Dropout rate on the encoded inputs (paper: 0.2).
    """

    def __init__(self, n_origins: int, n_destinations: int, n_buckets: int,
                 rng: np.random.Generator, rank: int = 5,
                 encoder_dim: int = 16, hidden_dim: int = 32,
                 dropout: float = 0.2):
        super().__init__()
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.n_origins = n_origins
        self.n_destinations = n_destinations
        self.n_buckets = n_buckets
        self.rank = rank
        flat = n_origins * n_destinations * n_buckets
        self.encode_r = Linear(flat, encoder_dim, rng)
        self.encode_c = Linear(flat, encoder_dim, rng)
        self.drop_r = Dropout(dropout, rng)
        self.drop_c = Dropout(dropout, rng)
        self.seq2seq_r = Seq2Seq(encoder_dim, hidden_dim,
                                 n_origins * rank * n_buckets, rng)
        self.seq2seq_c = Seq2Seq(encoder_dim, hidden_dim,
                                 rank * n_destinations * n_buckets, rng)

    def forward(self, history: Union[np.ndarray, Tensor], horizon: int
                ) -> Tuple[Tensor, Tensor, Tensor]:
        """Forecast ``horizon`` full tensors from sparse history.

        Parameters
        ----------
        history:
            ``(B, s, N, N', K)`` sparse historical tensors.
        horizon:
            Number of future intervals ``h``.

        Returns
        -------
        ``(prediction, r_factors, c_factors)`` where prediction is
        ``(B, h, N, N', K)`` with valid per-cell histograms, and the
        factor tensors are ``(B, h, N, β, K)`` and ``(B, h, β, N', K)``.
        """
        x = history if isinstance(history, Tensor) else Tensor(history)
        if x.ndim != 5:
            raise ValueError(f"history must be (B, s, N, N', K), "
                             f"got shape {x.shape}")
        policy = get_contract_policy()
        if policy.enabled:
            check_shape_dtype(
                x.data, "history", "BF.forward", policy=policy,
                shape=(None, None, self.n_origins, self.n_destinations,
                       self.n_buckets))
            check_finite(x.data, "history", "BF.forward", policy)
        batch, steps = x.shape[0], x.shape[1]
        flat = x.reshape(batch, steps, -1)
        codes_r = self.drop_r(ops.relu(self.encode_r(flat)))
        codes_c = self.drop_c(ops.relu(self.encode_c(flat)))
        r_flat = self.seq2seq_r(codes_r, horizon)
        c_flat = self.seq2seq_c(codes_c, horizon)
        r_factors = r_flat.reshape(batch, horizon, self.n_origins,
                                   self.rank, self.n_buckets)
        c_factors = c_flat.reshape(batch, horizon, self.rank,
                                   self.n_destinations, self.n_buckets)
        prediction = recover(r_factors, c_factors)
        return prediction, r_factors, c_factors
