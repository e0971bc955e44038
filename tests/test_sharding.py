"""Tests for shard planning (``repro.graph.sharding``) and sharded
stage-1 execution (``repro.core.shardexec``).

The execution contract (docs/SHARDING.md): ``exact`` mode is
bit-identical to the dense path — outputs, losses, gradients, weights,
and RNG consumption; ``blocked`` mode keeps the forward bit-identical
(zero-slice collapse is exact by linearity), reduces weight gradients
deterministically to float round-off of dense, and bounds one shard's
working set under a tracemalloc-enforced budget.
"""

import warnings

import numpy as np
import pytest

from repro.autodiff import Adam
from repro.autodiff.tensor import Tensor
from repro.core import (AdvancedFramework, BasicFramework,
                        ShardedExecution, ShardMemoryBudgetError,
                        TrainConfig, Trainer, af_loss,
                        factorize_tensor_batch)
from repro.core.shardexec import _shard_slices
from repro.graph import chebyshev_hops, plan_shards

N_SHARDS = 4
HOPS = chebyshev_hops([3, 3])


@pytest.fixture(scope="module")
def plan(proximity):
    return plan_shards(proximity, n_shards=N_SHARDS, hops=HOPS)


@pytest.fixture()
def batch(windows, split):
    return next(iter(windows.batches(split.train, 4)))


def _model(proximity, n_buckets, seed=0):
    rng = np.random.default_rng(seed)
    return AdvancedFramework(proximity, proximity, n_buckets, rng,
                             rank=3, rnn_hidden=6, rnn_order=2)


def _loss(weights):
    def loss(pred, truth, mask, r, c):
        return af_loss(pred, truth, mask, r, c, weights, weights)
    return loss


def _flat(histories):
    b, s, n, m, k = histories.shape
    return Tensor(histories.reshape(b * s, n, m, k))


def _train_step(model, weights, batch, horizon, sharding=None):
    """One forward/backward; returns (loss value, {name: grad})."""
    if sharding is not None:
        model.set_sharding(sharding)
    histories, targets, masks = batch
    model.train()
    prediction, r, c = model(histories, horizon)
    loss = _loss(weights)(prediction, targets, masks, r, c)
    loss.backward()
    grads = {name: np.array(param.grad)
             for name, param in model.named_parameters()}
    return loss.item(), grads


class TestPlanner:
    def test_every_region_owned_exactly_once(self, plan, proximity):
        n = proximity.shape[0]
        for shards in (plan.origin_shards, plan.dest_shards):
            owned = np.concatenate([s.owned for s in shards])
            assert np.array_equal(np.sort(owned), np.arange(n))

    def test_halos_disjoint_and_plan_validates(self, plan):
        assert plan.validate() is plan
        for shard in plan.origin_shards + plan.dest_shards:
            assert np.intersect1d(shard.owned, shard.halo).size == 0

    def test_planning_is_deterministic(self, proximity):
        a = plan_shards(proximity, n_shards=N_SHARDS, hops=HOPS)
        b = plan_shards(proximity, n_shards=N_SHARDS, hops=HOPS)
        for sa, sb in zip(a.origin_shards, b.origin_shards):
            assert np.array_equal(sa.owned, sb.owned)
            assert np.array_equal(sa.halo, sb.halo)

    def test_chebyshev_hops(self):
        assert chebyshev_hops([3, 3]) == 4
        assert chebyshev_hops([1]) == 0
        assert chebyshev_hops([]) == 0

    def test_describe_reports_both_sides(self, plan):
        summary = plan.describe()
        assert summary["hops"] == HOPS
        for side in ("origin", "dest"):
            assert summary[side]["n_shards"] >= 2
            assert sum(summary[side]["sizes"]) == plan.n_origins


class TestExactMode:
    def test_factorization_bitwise_vs_dense(self, plan, proximity,
                                            sequence, batch):
        model = _model(proximity, sequence.n_buckets)
        model.eval()
        tensors = _flat(batch[0])
        dense_r, dense_c = factorize_tensor_batch(
            model.factor_r, model.factor_c, tensors)
        execution = ShardedExecution(plan, mode="exact")
        sharded_r, sharded_c = execution.factorize(
            model.factor_r, model.factor_c, tensors)
        np.testing.assert_array_equal(sharded_r.numpy(), dense_r.numpy())
        np.testing.assert_array_equal(sharded_c.numpy(), dense_c.numpy())

    def test_train_step_bit_identical_to_dense(self, plan, proximity,
                                               sequence, batch):
        dense_model = _model(proximity, sequence.n_buckets)
        dense_loss, dense_grads = _train_step(dense_model, proximity,
                                              batch, horizon=2)
        sharded_model = _model(proximity, sequence.n_buckets)
        execution = ShardedExecution(plan, mode="exact")
        sharded_loss, sharded_grads = _train_step(
            sharded_model, proximity, batch, horizon=2,
            sharding=execution)
        assert sharded_loss == dense_loss
        assert set(sharded_grads) == set(dense_grads)
        for name, grad in dense_grads.items():
            np.testing.assert_array_equal(sharded_grads[name], grad,
                                          err_msg=name)

    def test_short_fit_bit_identical_to_dense(self, plan, proximity,
                                              sequence, windows, split):
        config = dict(epochs=1, batch_size=4, max_train_batches=2,
                      max_val_batches=1, seed=0)
        dense_model = _model(proximity, sequence.n_buckets)
        dense_result = Trainer(dense_model, _loss(proximity),
                               TrainConfig(**config)).fit(
                                   windows, split, horizon=2)
        sharded_model = _model(proximity, sequence.n_buckets)
        execution = ShardedExecution(plan, mode="exact")
        sharded_result = Trainer(sharded_model, _loss(proximity),
                                 TrainConfig(**config),
                                 sharding=execution).fit(
                                     windows, split, horizon=2)
        assert sharded_result.train_losses == dense_result.train_losses
        assert sharded_result.val_losses == dense_result.val_losses
        dense_state = dense_model.state_dict()
        sharded_state = sharded_model.state_dict()
        for name, value in dense_state.items():
            np.testing.assert_array_equal(sharded_state[name], value,
                                          err_msg=name)


class TestBlockedMode:
    def test_forward_bitwise_vs_dense(self, plan, proximity, sequence,
                                      batch):
        model = _model(proximity, sequence.n_buckets)
        model.eval()
        histories = batch[0]
        dense_pred, _, _ = model(histories, 2)
        execution = ShardedExecution(plan, mode="blocked")
        model.set_sharding(execution)
        sharded_pred, _, _ = model(histories, 2)
        np.testing.assert_array_equal(sharded_pred.numpy(),
                                      dense_pred.numpy())
        # The sparse toy data leaves some slices empty, so the forward
        # above exercised the zero-slice collapse.
        occupancy = execution.last_occupancy
        assert 0 < occupancy["r"]["occupancy"] <= 1
        assert occupancy["r"]["slices"] == histories.shape[0] \
            * histories.shape[1] * model.n_origins

    @pytest.mark.usefixtures("float64")
    def test_grads_deterministic_and_match_dense_to_roundoff(
            self, plan, proximity, sequence, batch):
        dense_loss, dense_grads = _train_step(
            _model(proximity, sequence.n_buckets), proximity, batch,
            horizon=2)
        runs = []
        for _ in range(2):
            execution = ShardedExecution(plan, mode="blocked")
            runs.append(_train_step(
                _model(proximity, sequence.n_buckets), proximity, batch,
                horizon=2, sharding=execution))
        (loss_a, grads_a), (loss_b, grads_b) = runs
        assert loss_a == loss_b                   # run-to-run determinism
        for name in grads_a:
            np.testing.assert_array_equal(grads_a[name], grads_b[name],
                                          err_msg=name)
        assert loss_a == pytest.approx(dense_loss, rel=1e-12)
        for name, grad in dense_grads.items():
            np.testing.assert_allclose(grads_a[name], grad, rtol=1e-8,
                                       atol=1e-12, err_msg=name)

    def test_input_gradient_rejected(self, plan, proximity, sequence,
                                     batch):
        model = _model(proximity, sequence.n_buckets)
        model.set_sharding(ShardedExecution(plan, mode="blocked"))
        model.train()
        with pytest.raises(NotImplementedError, match="blocked"):
            model(Tensor(batch[0], requires_grad=True), 2)

    def test_invalid_mode_rejected(self, plan):
        with pytest.raises(ValueError, match="mode"):
            ShardedExecution(plan, mode="fast")


class TestDenseUnquantizedFactors:
    """Shard ≡ dense on dense, unquantized histograms.

    The toy city's 12 regions and sparse counts leave every Laplacian
    GEMM tiny and many products exact; there an unpadded node-major
    Chebyshev GEMM still matched dense.  Random Dirichlet histograms at
    30 regions do not; see tests/test_cheb_layout.py.
    """

    @pytest.mark.parametrize("mode", ["exact", "blocked"])
    def test_factorization_bitwise_vs_dense(self, mode):
        n, k = 30, 7
        rng = np.random.default_rng(n)
        proximity = rng.uniform(0.1, 1.0, (n, n))
        proximity = (proximity + proximity.T) / 2.0
        np.fill_diagonal(proximity, 0.0)
        histograms = rng.dirichlet(np.ones(k), size=(2, n, n))
        histograms[rng.random((2, n, n)) < 0.5] = 0.0
        tensors = Tensor(histograms)
        model = _model(proximity, k)
        model.eval()
        dense_r, dense_c = factorize_tensor_batch(
            model.factor_r, model.factor_c, tensors)
        execution = ShardedExecution(
            plan_shards(proximity, n_shards=4, hops=HOPS), mode=mode)
        sharded_r, sharded_c = execution.factorize(
            model.factor_r, model.factor_c, tensors)
        np.testing.assert_array_equal(sharded_r.numpy(), dense_r.numpy())
        np.testing.assert_array_equal(sharded_c.numpy(), dense_c.numpy())


class TestMetroSizeExactFit:
    """Exact mode ≡ dense over Adam steps at a metro-like size.

    At 280 regions every dense node-major Chebyshev GEMM is thousands of
    columns wide, large enough for the BLAS to split it across threads
    at its default threading, while each shard's calls are a fraction of
    that width.  Shard ≡ dense holds only while a column's bits do not
    depend on the call's width or thread split.  (The column padding
    itself matters for small calls; TestDenseUnquantizedFactors and
    tests/test_cheb_layout.py catch its loss.)
    """

    def test_train_steps_bit_identical_to_dense(self):
        n, k, steps = 280, 7, 2
        rng = np.random.default_rng(n)
        proximity = rng.uniform(0.1, 1.0, (n, n))
        proximity = (proximity + proximity.T) / 2.0
        np.fill_diagonal(proximity, 0.0)
        histories = rng.dirichlet(np.ones(k), size=(1, 2, n, n))
        histories[rng.random((1, 2, n, n)) < 0.5] = 0.0
        truth = rng.dirichlet(np.ones(k), size=(1, 1, n, n))
        mask = (rng.random((1, 1, n, n)) < 0.5).astype(float)
        plan = plan_shards(proximity, n_shards=N_SHARDS, hops=HOPS)
        runs = []
        for sharding in (None, ShardedExecution(plan, mode="exact")):
            model = _model(proximity, k)
            if sharding is not None:
                model.set_sharding(sharding)
            optimizer = Adam(model.parameters())
            model.train()
            losses = []
            for _ in range(steps):
                optimizer.zero_grad()
                prediction, r, c = model(histories, 1)
                loss = _loss(proximity)(prediction, truth, mask, r, c)
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            runs.append((losses, model.state_dict()))
        (dense_losses, dense_state), (sharded_losses, sharded_state) = runs
        assert sharded_losses == dense_losses
        for name, value in dense_state.items():
            np.testing.assert_array_equal(sharded_state[name], value,
                                          err_msg=name)


class TestMemoryBudget:
    def test_budget_violation_raises(self, plan, proximity, sequence,
                                     batch):
        model = _model(proximity, sequence.n_buckets)
        model.eval()
        execution = ShardedExecution(plan, mode="blocked",
                                     memory_budget_bytes=16)
        model.set_sharding(execution)
        with pytest.raises(ShardMemoryBudgetError) as err:
            model(batch[0], 2)
        assert err.value.used > err.value.budget == 16
        assert err.value.side in ("r", "c")

    def test_peaks_recorded_on_profiled_forward(self, plan, proximity,
                                                sequence, batch):
        model = _model(proximity, sequence.n_buckets)
        model.eval()
        execution = ShardedExecution(plan, mode="blocked",
                                     memory_budget_bytes=1 << 30)
        model.set_sharding(execution)
        model(batch[0], 2)
        assert execution.max_shard_peak_bytes > 0
        summary = execution.describe()
        assert summary["mode"] == "blocked"
        assert summary["max_shard_peak_bytes"] \
            == execution.max_shard_peak_bytes

    def test_invalid_budget_rejected(self, plan):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ShardedExecution(plan, memory_budget_bytes=0)


class TestShardSlices:
    def test_shards_cover_every_slice(self, plan):
        """Each side's shards own every slice of a batch exactly once."""
        batch = 3
        for shards, n_side in ((plan.origin_shards, plan.n_origins),
                               (plan.dest_shards, plan.n_destinations)):
            rows = np.concatenate([_shard_slices(shard, batch, n_side)
                                   for shard in shards])
            assert np.array_equal(np.sort(rows),
                                  np.arange(batch * n_side))


class TestTrainerIntegration:
    def test_model_without_hook_rejected(self, plan, proximity,
                                         sequence):
        n = proximity.shape[0]
        rng = np.random.default_rng(0)
        model = BasicFramework(n, n, sequence.n_buckets, rng)
        with pytest.raises(ValueError, match="set_sharding"):
            Trainer(model, _loss(proximity), TrainConfig(),
                    sharding=ShardedExecution(plan))

    def test_mismatched_plan_rejected(self, proximity, sequence):
        small = plan_shards(proximity[:8, :8], n_shards=2, hops=1)
        model = _model(proximity, sequence.n_buckets)
        with pytest.raises(ValueError, match="regions"):
            model.set_sharding(ShardedExecution(small))

    def test_fit_emits_sharding_telemetry(self, plan, proximity,
                                          sequence, windows, split):
        model = _model(proximity, sequence.n_buckets)
        execution = ShardedExecution(plan, mode="blocked")
        trainer = Trainer(model, _loss(proximity),
                          TrainConfig(epochs=1, batch_size=4,
                                      max_train_batches=1,
                                      max_val_batches=1),
                          sharding=execution)
        events = []
        trainer.fit(windows, split, horizon=2,
                    telemetry=lambda event, fields:
                    events.append((event, fields)))
        sharding_events = [fields for event, fields in events
                           if event == "sharding"]
        assert len(sharding_events) == 1
        assert sharding_events[0]["units"] \
            == plan.n_origin_shards + plan.n_dest_shards
        assert sharding_events[0]["mode"] == "blocked"
