"""Standard method roster for the experiments.

Factories building each of the paper's seven methods (five baselines plus
BF and AF) against a prepared :class:`ExperimentData`.  Training budgets
are configurable so unit tests, examples, and full benchmark runs can use
the same roster at different scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..baselines import (FCBaseline, Forecaster, GaussianProcessForecaster,
                         MRForecaster, NaiveHistogram, NeuralForecaster,
                         VARForecaster, plain_loss)
from ..core import (AdvancedFramework, BasicFramework, TrainConfig, af_loss,
                    bf_loss)
from ..core.config import PracticalHyperParameters
from .runner import ExperimentData, MethodFactory


@dataclass(frozen=True)
class MethodBudget:
    """Training budget applied to the deep methods."""

    epochs: int = 20
    batch_size: int = 16
    max_train_batches: Optional[int] = None
    max_val_batches: Optional[int] = 8
    patience: int = 6
    learning_rate: float = 1e-3
    seed: int = 0
    verbose: bool = False

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           learning_rate=self.learning_rate,
                           max_train_batches=self.max_train_batches,
                           max_val_batches=self.max_val_batches,
                           patience=self.patience, seed=self.seed,
                           verbose=self.verbose)


QUICK_BUDGET = MethodBudget(epochs=4, batch_size=8, max_train_batches=8,
                            max_val_batches=3, patience=4)
BENCH_BUDGET = MethodBudget(epochs=12, batch_size=16, max_train_batches=24,
                            max_val_batches=6, patience=5)


def make_nh(_: ExperimentData) -> Forecaster:
    return NaiveHistogram()


def make_gp(_: ExperimentData) -> Forecaster:
    return GaussianProcessForecaster()


def make_var(data: ExperimentData) -> Forecaster:
    n_comp = min(40, data.city.n_regions)
    return VARForecaster(lag=min(3, data.windows.s), n_components=n_comp)


def make_mr(_: ExperimentData) -> Forecaster:
    return MRForecaster(epochs=6)


def make_fc(data: ExperimentData,
            budget: MethodBudget = QUICK_BUDGET,
            hp: PracticalHyperParameters = PracticalHyperParameters()
            ) -> Forecaster:
    rng = np.random.default_rng(budget.seed)
    n = data.city.n_regions
    model = FCBaseline(n, n, data.sequence.n_buckets, rng,
                       encoder_dim=hp.encoder_dim, hidden_dim=hp.gru_units,
                       dropout=hp.dropout)
    return NeuralForecaster("fc", model, plain_loss, budget.train_config())


def make_bf(data: ExperimentData,
            budget: MethodBudget = QUICK_BUDGET,
            hp: PracticalHyperParameters = PracticalHyperParameters(),
            lambda_r: float = 1e-4, lambda_c: float = 1e-4) -> Forecaster:
    rng = np.random.default_rng(budget.seed)
    n = data.city.n_regions
    model = BasicFramework(n, n, data.sequence.n_buckets, rng,
                           rank=hp.rank, encoder_dim=hp.encoder_dim,
                           hidden_dim=hp.gru_units, dropout=hp.dropout)

    def loss(pred, truth, mask, r, c):
        return bf_loss(pred, truth, mask, r, c,
                       lambda_r=lambda_r, lambda_c=lambda_c)

    return NeuralForecaster("bf", model, loss, budget.train_config())


def make_af(data: ExperimentData,
            budget: MethodBudget = QUICK_BUDGET,
            hp: PracticalHyperParameters = PracticalHyperParameters(),
            lambda_r: float = 1e-4, lambda_c: float = 1e-4,
            origin_weights: Optional[np.ndarray] = None,
            dest_weights: Optional[np.ndarray] = None,
            cluster_pooling: bool = True,
            dirichlet: bool = True,
            rank: Optional[int] = None,
            rnn_order: Optional[int] = None) -> Forecaster:
    rng = np.random.default_rng(budget.seed)
    w_origin = origin_weights if origin_weights is not None \
        else data.origin_proximity()
    w_dest = dest_weights if dest_weights is not None \
        else data.dest_proximity()
    model = AdvancedFramework(w_origin, w_dest, data.sequence.n_buckets,
                              rng,
                              rank=rank if rank is not None else hp.rank,
                              blocks=hp.gcnn_blocks,
                              rnn_hidden=hp.cnrnn_hidden,
                              rnn_order=(rnn_order if rnn_order is not None
                                         else hp.cnrnn_order),
                              cluster_pooling=cluster_pooling,
                              dropout=hp.dropout)

    if dirichlet:
        def loss(pred, truth, mask, r, c):
            return af_loss(pred, truth, mask, r, c, w_origin, w_dest,
                           lambda_r=lambda_r, lambda_c=lambda_c)
    else:
        # Ablation: Frobenius regularizers (the BF loss) on the AF model.
        def loss(pred, truth, mask, r, c):
            return bf_loss(pred, truth, mask, r, c,
                           lambda_r=lambda_r, lambda_c=lambda_c)

    return NeuralForecaster("af", model, loss, budget.train_config())


def full_roster(budget: MethodBudget = QUICK_BUDGET,
                af_budget: Optional[MethodBudget] = None
                ) -> Dict[str, MethodFactory]:
    """All seven methods of Table II.

    ``af_budget`` optionally gives AF its own training budget — its
    deeper graph pipeline benefits from a higher learning rate and more
    optimization steps than the dense models need.
    """
    af_budget = af_budget or budget
    return {
        "nh": make_nh,
        "gp": make_gp,
        "var": make_var,
        "mr": make_mr,
        "fc": lambda data: make_fc(data, budget),
        "bf": lambda data: make_bf(data, budget),
        "af": lambda data: make_af(data, af_budget),
    }
