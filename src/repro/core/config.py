"""Model configurations, including the paper's Table I settings.

Table I of the paper lists, per dataset, the layer configuration and the
total weight count of the three deep models (FC baseline, BF, AF), the
headline being that AF — the most complex model — has the *fewest*
weights.  :func:`paper_bf` and :func:`paper_af` build the frameworks at
the paper's sizes so ``benchmarks/test_table1_configs.py`` can regenerate
the comparison; :class:`PracticalHyperParameters` holds the slightly larger
settings the synthetic-data experiments default to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..contracts import (ContractPolicy, contract_policy,
                         get_contract_policy, set_contract_policy)
from .af import AdvancedFramework
from .bf import BasicFramework
from .spatial import GCNNBlock

__all__ = [
    "PaperHyperParameters", "PracticalHyperParameters",
    "paper_bf", "paper_af",
    # Contract policy selection lives with the other model/run
    # configuration knobs; the implementation is repro.contracts.
    "ContractPolicy", "contract_policy", "get_contract_policy",
    "set_contract_policy",
]


@dataclass(frozen=True)
class PaperHyperParameters:
    """Table I hyper-parameters shared by both datasets."""

    rank: int = 5                # factorization rank r
    n_buckets: int = 7           # histogram buckets K
    encoder_dim: int = 2         # FC bottleneck before the GRU
    gru_units: int = 3           # GRU state size
    gcnn_blocks: Tuple[GCNNBlock, ...] = (
        GCNNBlock(filters=32, order=8, pool_levels=2),
        GCNNBlock(filters=32, order=4, pool_levels=2),
    )
    cnrnn_hidden: int = 32       # graph filters per CNRNN gate
    cnrnn_order: int = 4
    dropout: float = 0.2
    learning_rate: float = 1e-3
    decay_factor: float = 0.8
    decay_every: int = 5


def paper_bf(n_regions: int, seed: int = 0,
             hp: PaperHyperParameters = PaperHyperParameters()
             ) -> BasicFramework:
    """BF at the paper's Table I size for a square OD matrix."""
    rng = np.random.default_rng(seed)
    return BasicFramework(n_regions, n_regions, hp.n_buckets, rng,
                          rank=hp.rank, encoder_dim=hp.encoder_dim,
                          hidden_dim=hp.gru_units, dropout=hp.dropout)


def paper_af(origin_weights: np.ndarray, dest_weights: np.ndarray,
             seed: int = 0,
             hp: PaperHyperParameters = PaperHyperParameters()
             ) -> AdvancedFramework:
    """AF at the paper's Table I size."""
    rng = np.random.default_rng(seed)
    return AdvancedFramework(origin_weights, dest_weights, hp.n_buckets,
                             rng, rank=hp.rank, blocks=hp.gcnn_blocks,
                             rnn_hidden=hp.cnrnn_hidden,
                             rnn_order=hp.cnrnn_order, dropout=hp.dropout)


# ----------------------------------------------------------------------
# Practical settings for the synthetic-data experiments: modestly larger
# bottlenecks train more reliably on short synthetic histories while
# preserving the architecture (and the FC > BF > AF weight ordering is
# still reported from the Table I sizes).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PracticalHyperParameters:
    rank: int = 5
    encoder_dim: int = 24
    gru_units: int = 48
    gcnn_blocks: Tuple[GCNNBlock, ...] = (
        GCNNBlock(filters=16, order=3, pool_levels=1),
        GCNNBlock(filters=12, order=3, pool_levels=1),
    )
    cnrnn_hidden: int = 16
    cnrnn_order: int = 2
    dropout: float = 0.2

