"""Extra behavioural tests for deep baselines under the Trainer."""

import numpy as np
import pytest

from repro.baselines import FCBaseline, NeuralForecaster, plain_loss
from repro.core import TrainConfig


class TestFCTraining:
    def test_fc_learns_on_toy_windows(self, windows, split, rng):
        """FC's validation loss must drop when trained a few epochs."""
        model = FCBaseline(12, 12, 7, rng, encoder_dim=8, hidden_dim=12)
        adapter = NeuralForecaster(
            "fc", model, plain_loss,
            TrainConfig(epochs=5, batch_size=8, max_train_batches=10,
                        patience=10, seed=3))
        adapter.fit(windows, split, horizon=2)
        losses = adapter.result.val_losses
        assert losses[-1] <= losses[0] + 1e-6 or \
            adapter.result.best_val_loss <= losses[0]

    def test_predictions_differ_across_histories(self, windows, split,
                                                 rng):
        """A trained FC must condition on its input, not collapse to a
        constant output."""
        model = FCBaseline(12, 12, 7, rng, encoder_dim=8, hidden_dim=12)
        adapter = NeuralForecaster(
            "fc", model, plain_loss,
            TrainConfig(epochs=2, batch_size=8, max_train_batches=6))
        adapter.fit(windows, split, horizon=1)
        a = adapter.predict(windows, split.test[:1], 1)
        b = adapter.predict(windows, split.test[-1:], 1)
        assert not np.allclose(a, b)

    def test_training_in_float32_mode(self, windows, split):
        import repro.autodiff as autodiff
        previous = autodiff.set_default_dtype(np.float32)
        try:
            rng = np.random.default_rng(0)
            model = FCBaseline(12, 12, 7, rng, encoder_dim=6,
                               hidden_dim=8)
            adapter = NeuralForecaster(
                "fc", model, plain_loss,
                TrainConfig(epochs=1, batch_size=8, max_train_batches=3))
            adapter.fit(windows, split, horizon=1)
            pred = adapter.predict(windows, split.test[:2], 1)
            assert np.isfinite(pred).all()
            assert np.allclose(pred.sum(-1), 1.0, atol=1e-4)
        finally:
            autodiff.set_default_dtype(previous)
