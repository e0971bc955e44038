"""Advanced framework (AF): dual-stage graph convolutional recurrence.

Paper §V.  Stage 1 factorizes every historical tensor with Cheby-Net
convolutions + cluster pooling over the two proximity graphs
(:mod:`repro.core.spatial`); stage 2 forecasts the factor sequences with
CNRNNs whose gates are graph convolutions (:mod:`repro.core.cnrnn`);
recovery is shared with BF.  Trained end-to-end with the Dirichlet-
regularized loss of Eq. 11.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from ..autodiff.layers import Dropout
from ..autodiff.module import Module
from ..autodiff.tensor import Tensor
from ..contracts import (check_finite, check_shape_dtype,
                         get_contract_policy)
from .cnrnn import GraphSeq2Seq
from .recovery import recover
from .spatial import (DEFAULT_BLOCKS, GCNNBlock, SpatialFactorizer,
                      factorize_tensor_batch)


class AdvancedFramework(Module):
    """End-to-end AF model.

    Parameters
    ----------
    origin_weights, dest_weights:
        Proximity matrices W (origins) and W' (destinations).
    n_buckets:
        Histogram buckets K.
    rank:
        Factorization rank β (paper: 5).
    blocks:
        GCNN conv+pool stages for the factorizers.
    rnn_hidden:
        Hidden channels of the CNRNN gates (graph-signal features per
        region).
    rnn_order:
        Chebyshev order of the CNRNN gate convolutions.
    """

    def __init__(self, origin_weights: np.ndarray, dest_weights: np.ndarray,
                 n_buckets: int, rng: np.random.Generator, rank: int = 5,
                 blocks: Sequence[GCNNBlock] = DEFAULT_BLOCKS,
                 rnn_hidden: int = 16, rnn_order: int = 2,
                 cluster_pooling: bool = True,
                 dropout: float = 0.2):
        super().__init__()
        self.origin_weights = np.asarray(origin_weights, dtype=np.float64)
        self.dest_weights = np.asarray(dest_weights, dtype=np.float64)
        self.n_origins = self.origin_weights.shape[0]
        self.n_destinations = self.dest_weights.shape[0]
        self.n_buckets = n_buckets
        self.rank = rank
        # R slices live on the destination graph; C slices on the origin
        # graph (paper §V-A2).
        self.factor_r = SpatialFactorizer(self.dest_weights, n_buckets,
                                          rank, rng, blocks=blocks,
                                          cluster_pooling=cluster_pooling)
        self.factor_c = SpatialFactorizer(self.origin_weights, n_buckets,
                                          rank, rng, blocks=blocks,
                                          cluster_pooling=cluster_pooling)
        self.drop_r = Dropout(dropout, rng)
        self.drop_c = Dropout(dropout, rng)
        channels = rank * n_buckets
        # The R sequence is a graph signal over origins; C over
        # destinations (paper §V-B).
        self.rnn_r = GraphSeq2Seq(self.origin_weights, channels, rnn_hidden,
                                  channels, rnn_order, rng)
        self.rnn_c = GraphSeq2Seq(self.dest_weights, channels, rnn_hidden,
                                  channels, rnn_order, rng)
        # Optional sharded stage-1 execution (metro scale); installed
        # via set_sharding, never serialized with the weights.
        self._sharding = None

    def set_sharding(self, execution) -> None:
        """Install (or clear, with ``None``) a sharded stage-1 path.

        ``execution`` is a :class:`repro.core.shardexec.ShardedExecution`
        whose plan must cover this model's regions; stage 2 (the CNRNN
        forecaster) is untouched — its signals are ``(N, β·K)``, linear
        in N, and not the scaling bottleneck.
        """
        if execution is not None:
            ok, reason = execution.supports(self)
            if not ok:
                raise ValueError(
                    f"sharded execution does not fit this model: "
                    f"{reason}")
        self._sharding = execution

    def forward(self, history: Union[np.ndarray, Tensor], horizon: int
                ) -> Tuple[Tensor, Tensor, Tensor]:
        """Forecast ``horizon`` full tensors from sparse history.

        Same contract as :meth:`BasicFramework.forward`: history
        ``(B, s, N, N', K)`` → ``(prediction, R̂, Ĉ)`` with shapes
        ``(B, h, N, N', K)``, ``(B, h, N, β, K)``, ``(B, h, β, N', K)``.
        """
        x = history if isinstance(history, Tensor) else Tensor(history)
        if x.ndim != 5:
            raise ValueError(f"history must be (B, s, N, N', K), "
                             f"got shape {x.shape}")
        policy = get_contract_policy()
        if policy.enabled:
            check_shape_dtype(
                x.data, "history", "AF.forward", policy=policy,
                shape=(None, None, self.n_origins, self.n_destinations,
                       self.n_buckets))
            check_finite(x.data, "history", "AF.forward", policy)
        batch, steps = x.shape[0], x.shape[1]
        n, n_prime, k = self.n_origins, self.n_destinations, self.n_buckets

        # Stage 1: spatial factorization of every historical tensor.
        flat_steps = x.reshape(batch * steps, n, n_prime, k)
        r_hist, c_hist = factorize_tensor_batch(
            self.factor_r, self.factor_c, flat_steps,
            getattr(self, "_sharding", None))
        # R history: (B, s, N, β*K) — graph signal over origins.
        r_seq = r_hist.reshape(batch, steps, n, self.rank * k)
        # C history: (B, s, β, N', K) → (B, s, N', β*K) over destinations.
        c_seq = c_hist.reshape(batch, steps, self.rank, n_prime, k)
        c_seq = c_seq.transpose((0, 1, 3, 2, 4)).reshape(
            batch, steps, n_prime, self.rank * k)
        # Dropout on the factor sequences (the paper trains all three
        # deep models with dropout 0.2).
        r_seq = self.drop_r(r_seq)
        c_seq = self.drop_c(c_seq)

        # Stage 2: CNRNN forecasting of both factor sequences.
        r_future = self.rnn_r(r_seq, horizon)
        c_future = self.rnn_c(c_seq, horizon)
        r_factors = r_future.reshape(batch, horizon, n, self.rank, k)
        c_factors = c_future.reshape(batch, horizon, n_prime, self.rank, k)
        c_factors = c_factors.transpose((0, 1, 3, 2, 4))

        prediction = recover(r_factors, c_factors)
        return prediction, r_factors, c_factors
