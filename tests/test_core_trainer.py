"""Tests for the training loop."""

import numpy as np
import pytest

from repro.autodiff import Module, Parameter, Tensor
from repro.baselines import FCBaseline, plain_loss
from repro.core import BasicFramework, TrainConfig, Trainer, bf_loss


@pytest.fixture
def small_model(rng):
    return BasicFramework(12, 12, 7, rng, rank=3, encoder_dim=8,
                          hidden_dim=12, dropout=0.1)


def _loss(pred, truth, mask, r, c):
    return bf_loss(pred, truth, mask, r, c, 1e-4, 1e-4)


class TestTrainer:
    def test_fit_reduces_validation_loss(self, windows, split, small_model):
        trainer = Trainer(small_model, _loss,
                          TrainConfig(epochs=6, batch_size=8,
                                      max_train_batches=10, patience=10,
                                      seed=1))
        result = trainer.fit(windows, split, horizon=2)
        assert len(result.val_losses) >= 2
        assert result.best_val_loss <= result.val_losses[0] + 1e-9

    def test_engine_option_removed(self):
        """Training runs eagerly only: the old engine selector is no
        longer an option, and passing it fails loudly."""
        from repro.experiments import MethodBudget
        for make in (TrainConfig, MethodBudget):
            with pytest.raises(TypeError, match="engine"):
                make(engine="eager")

    def test_early_stopping(self, windows, split, rng):
        model = BasicFramework(12, 12, 7, rng, rank=2, encoder_dim=4,
                               hidden_dim=6)
        trainer = Trainer(model, _loss,
                          TrainConfig(epochs=50, batch_size=8,
                                      max_train_batches=2, patience=2,
                                      learning_rate=0.0))  # lr 0: no change
        result = trainer.fit(windows, split, horizon=2)
        # With lr=0 validation never improves after epoch 1: stop early.
        assert len(result.val_losses) <= 4

    def test_best_weights_restored(self, windows, split, small_model):
        trainer = Trainer(small_model, _loss,
                          TrainConfig(epochs=4, batch_size=8,
                                      max_train_batches=6, seed=2))
        result = trainer.fit(windows, split, horizon=2)
        final_val = trainer.evaluate(windows, split.val, horizon=2)
        assert final_val == pytest.approx(result.best_val_loss, rel=0.15)

    def test_lr_schedule_applied(self, windows, split, small_model):
        trainer = Trainer(small_model, _loss,
                          TrainConfig(epochs=6, batch_size=8,
                                      max_train_batches=2, patience=10,
                                      decay_factor=0.5, decay_every=2))
        trainer.fit(windows, split, horizon=2)
        assert trainer.optimizer.lr < 1e-3

    def test_predict_shapes_and_validity(self, windows, split, small_model):
        trainer = Trainer(small_model, _loss,
                          TrainConfig(epochs=1, batch_size=8,
                                      max_train_batches=2))
        trainer.fit(windows, split, horizon=2)
        pred = trainer.predict(windows, split.test[:10], horizon=2)
        assert pred.shape == (10, 2, 12, 12, 7)
        assert np.allclose(pred.sum(-1), 1.0)

    def test_works_with_fc_baseline_contract(self, windows, split, rng):
        model = FCBaseline(12, 12, 7, rng, encoder_dim=6, hidden_dim=8)
        trainer = Trainer(model, plain_loss,
                          TrainConfig(epochs=2, batch_size=8,
                                      max_train_batches=4))
        result = trainer.fit(windows, split, horizon=2)
        assert np.isfinite(result.best_val_loss)

    def test_evaluate_restores_prior_mode(self, windows, split,
                                          small_model):
        trainer = Trainer(small_model, _loss,
                          TrainConfig(epochs=1, batch_size=8,
                                      max_train_batches=1))
        small_model.eval()
        trainer.evaluate(windows, split.val, horizon=2, max_batches=1)
        # A caller that had the model in eval must not get dropout
        # silently re-enabled.
        assert not small_model.training
        small_model.train()
        trainer.evaluate(windows, split.val, horizon=2, max_batches=1)
        assert small_model.training

    def test_predict_restores_prior_mode(self, windows, split,
                                         small_model):
        trainer = Trainer(small_model, _loss,
                          TrainConfig(epochs=1, batch_size=8,
                                      max_train_batches=1))
        small_model.eval()
        trainer.predict(windows, split.test[:4], horizon=2)
        assert not small_model.training


class _DivergingModel(Module):
    """Forecaster whose predictions go NaN — a diverged training run."""

    def __init__(self, n, k):
        super().__init__()
        self.w = Parameter(np.ones(1))
        self.n, self.k = n, k

    def forward(self, histories, horizon):
        batch = histories.shape[0]
        blank = np.full((batch, horizon, self.n, self.n, self.k), np.nan)
        return self.w * Tensor(blank), None, None


class TestDivergenceHandling:
    def test_nan_val_loss_warns_flags_and_stops(self, windows, split):
        from repro.baselines import plain_loss
        trainer = Trainer(_DivergingModel(12, 7), plain_loss,
                          TrainConfig(epochs=10, batch_size=8,
                                      max_train_batches=1, patience=8))
        with pytest.warns(RuntimeWarning, match="non-finite"):
            result = trainer.fit(windows, split, horizon=2)
        assert result.diverged
        # Stopped at the first non-finite epoch, not after `patience`.
        assert len(result.val_losses) == 1
        assert result.best_epoch == -1

    def test_healthy_run_not_flagged(self, windows, split, small_model):
        trainer = Trainer(small_model, _loss,
                          TrainConfig(epochs=2, batch_size=8,
                                      max_train_batches=2, patience=10))
        result = trainer.fit(windows, split, horizon=2)
        assert not result.diverged
