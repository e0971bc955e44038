"""Tests for optimizer/scheduler serialization and checkpoint/resume."""

import zipfile

import numpy as np
import pytest

from repro.autodiff import Adam, Optimizer, StepDecay
from repro.autodiff.module import Parameter
from repro.core import BasicFramework, TrainConfig, Trainer, bf_loss
from repro.faultinject import corrupt_file
from repro.persistence import (Checkpoint, CheckpointCorruptError,
                               load_checkpoint, load_model,
                               save_checkpoint)


def _loss(pred, truth, mask, r, c):
    return bf_loss(pred, truth, mask, r, c, 1e-4, 1e-4)


def _make_model(seed=7, dropout=0.2):
    return BasicFramework(12, 12, 7, np.random.default_rng(seed), rank=3,
                          encoder_dim=8, hidden_dim=12, dropout=dropout)


def _step(param, optimizer):
    loss = ((param - 3.0) ** 2).sum()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()


class TestOptimizerStateDict:
    def test_adam_round_trip_continues_identically(self):
        p1 = Parameter(np.array([0.0, 10.0]))
        opt1 = Adam([p1], lr=0.3)
        for _ in range(5):
            _step(p1, opt1)
        state = opt1.state_dict()

        p2 = Parameter(p1.data.copy())
        opt2 = Adam([p2], lr=0.999)          # wrong lr, fixed by load
        opt2.load_state_dict(state)
        assert opt2.lr == opt1.lr
        assert opt2._t == opt1._t
        for _ in range(5):
            _step(p1, opt1)
            _step(p2, opt2)
        assert np.array_equal(p1.data, p2.data)

    def test_adam_state_is_a_copy(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        _step(p, opt)
        state = opt.state_dict()
        state["m"][0][:] = 99.0
        assert not np.allclose(opt._m[0], 99.0)

    def test_adam_slot_count_mismatch_raises(self):
        p, q = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        state = Adam([p], lr=0.1).state_dict()
        with pytest.raises(ValueError):
            Adam([p, q], lr=0.1).load_state_dict(state)

    def test_adam_slot_shape_mismatch_raises(self):
        state = Adam([Parameter(np.zeros(2))], lr=0.1).state_dict()
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(3))], lr=0.1).load_state_dict(state)

    def test_float32_params_keep_float32_slots(self):
        from repro.autodiff import set_default_dtype
        previous = set_default_dtype(np.float32)
        try:
            p = Parameter(np.zeros(2))
            opt = Adam([p], lr=0.1)
            opt.load_state_dict(opt.state_dict())
        finally:
            set_default_dtype(previous)
        assert opt._m[0].dtype == np.float32
        assert opt._v[0].dtype == np.float32


class TestStepDecayStateDict:
    def test_round_trip_restores_epoch_and_lr(self):
        p = Parameter(np.zeros(1))
        opt1 = Adam([p], lr=1e-3)
        sched1 = StepDecay(opt1, factor=0.8, every=5)
        for _ in range(7):
            sched1.step()
        opt2 = Adam([Parameter(np.zeros(1))], lr=1e-3)
        sched2 = StepDecay(opt2, factor=0.8, every=5)
        sched2.load_state_dict(sched1.state_dict())
        assert sched2.epoch == 7
        assert opt2.lr == opt1.lr
        assert sched2.step() == sched1.step()


class TestCheckpointFile:
    def test_full_round_trip(self, tmp_path, windows, split):
        model = _make_model()
        trainer = Trainer(model, _loss,
                          TrainConfig(epochs=2, batch_size=8,
                                      max_train_batches=3, seed=5))
        result = trainer.fit(windows, split, horizon=2)
        rng = np.random.default_rng(11)
        rng.normal(size=10)                      # advance past seed state
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=trainer.optimizer,
                        scheduler=trainer.scheduler, epoch=4,
                        result=result, rng_state=rng.bit_generator.state,
                        best_state=model.state_dict(),
                        extra={"stall": 2})

        clone = _make_model(seed=99)
        opt = Adam(clone.parameters(), lr=0.5)
        sched = StepDecay(opt, factor=0.5, every=3)
        checkpoint = load_checkpoint(path, model=clone, optimizer=opt,
                                     scheduler=sched)
        assert isinstance(checkpoint, Checkpoint)
        assert checkpoint.epoch == 4
        assert checkpoint.extra["stall"] == 2
        assert checkpoint.result_state["val_losses"] == result.val_losses
        # model weights restored bit-for-bit
        for name, value in model.state_dict().items():
            assert np.array_equal(checkpoint.model_state[name], value)
            assert np.array_equal(clone.state_dict()[name], value)
        # optimizer moments and step counter restored
        assert opt._t == trainer.optimizer._t
        for m1, m2 in zip(opt._m, trainer.optimizer._m):
            assert np.array_equal(m1, m2)
        assert sched.epoch == trainer.scheduler.epoch
        # the restored RNG continues exactly where the saved one left off
        resumed = np.random.default_rng(1)
        resumed.bit_generator.state = checkpoint.rng_state
        assert np.array_equal(rng.normal(size=4), resumed.normal(size=4))

    def test_optimizer_type_mismatch_raises(self, tmp_path):
        class Frozen(Optimizer):
            def step(self):
                pass

        model = _make_model()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model,
                        optimizer=Frozen(model.parameters(), lr=0.1),
                        epoch=0)
        adam = Adam(model.parameters(), lr=0.1)
        with pytest.raises(ValueError, match="optimizer is Frozen"):
            load_checkpoint(path, optimizer=adam)

    def test_non_checkpoint_file_raises(self, tmp_path):
        path = tmp_path / "weights.npz"
        np.savez(path, w=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_saved_uncompressed(self, tmp_path):
        """Checkpoints are stored, not deflated: zlib cost most of a save
        and shrank a float64 model by only a few percent."""
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, _make_model(), epoch=0)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}

    def test_reads_compressed_archive(self, tmp_path):
        """Earlier versions wrote checkpoints with np.savez_compressed;
        those files must still load, checksum and all."""
        model = _make_model()
        adam = Adam(model.parameters(), lr=0.1)
        _step(model.parameters()[0], adam)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=adam, epoch=3)
        with np.load(path) as archive:
            entries = {name: archive[name] for name in archive.files}
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **entries)
        with zipfile.ZipFile(old) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_DEFLATED}
        clone = _make_model(seed=99)
        opt = Adam(clone.parameters(), lr=0.5)
        checkpoint = load_checkpoint(old, model=clone, optimizer=opt)
        assert checkpoint.epoch == 3
        for name, value in model.state_dict().items():
            assert np.array_equal(clone.state_dict()[name], value)
        assert opt._t == adam._t

    def test_no_temp_files_left_behind(self, tmp_path):
        model = _make_model()
        save_checkpoint(tmp_path / "ckpt.npz", model, epoch=0)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "ckpt.npz"]
        assert leftovers == []


class TestCorruptCheckpoint:
    """Damaged checkpoint files must raise CheckpointCorruptError with a
    readable message — never a zipfile/zlib/KeyError traceback."""

    def _save(self, tmp_path):
        model = _make_model()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=Adam(model.parameters(),
                                                    lr=0.1), epoch=1)
        return path

    def test_truncated_file(self, tmp_path):
        path = self._save(tmp_path)
        corrupt_file(path, seed=0, mode="truncate")
        with pytest.raises(CheckpointCorruptError) as err:
            load_checkpoint(path)
        assert "ckpt.npz" in str(err.value)

    def test_bit_flipped_file(self, tmp_path):
        path = self._save(tmp_path)
        corrupt_file(path, seed=1, mode="bitflip", n_bits=16)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_not_even_a_zip(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_wrong_schema_missing_meta(self, tmp_path):
        path = tmp_path / "weights.npz"
        np.savez(path, w=np.zeros(3))
        with pytest.raises(CheckpointCorruptError) as err:
            load_checkpoint(path)
        assert "__meta__" in str(err.value)

    def test_wrong_schema_unreadable_meta(self, tmp_path):
        path = tmp_path / "badmeta.npz"
        np.savez(path, __meta__=np.frombuffer(b"not json{", dtype=np.uint8))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_checksum_catches_swapped_arrays(self, tmp_path):
        # Valid zip, valid JSON meta, but the stored arrays were altered
        # after the fact: only the embedded SHA-256 can catch this.
        path = self._save(tmp_path)
        with np.load(path) as archive:
            entries = {name: archive[name] for name in archive.files}
        victim = next(n for n in entries if n.startswith("model/"))
        entries[victim] = entries[victim] + 1.0
        np.savez(path, **entries)
        with pytest.raises(CheckpointCorruptError) as err:
            load_checkpoint(path)
        assert "SHA-256" in str(err.value)

    def test_corrupt_error_is_a_value_error(self):
        assert issubclass(CheckpointCorruptError, ValueError)

    def test_trainer_falls_back_to_best_npz(self, tmp_path, windows,
                                            split):
        directory = tmp_path / "run"
        cfg = dict(batch_size=8, max_train_batches=4, patience=10, seed=3)
        trainer = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=2, **cfg))
        trainer.fit(windows, split, horizon=2, checkpoint_dir=directory)
        corrupt_file(directory / "checkpoint.npz", seed=2, mode="truncate")

        resumed = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=2, **cfg))
        events = []
        with pytest.warns(RuntimeWarning, match="corrupt"):
            result = resumed.fit(
                windows, split, horizon=2, checkpoint_dir=directory,
                resume=True,
                telemetry=lambda e, f: events.append((e, f)))
        assert len(result.val_losses) == 2       # retrained from scratch
        fallbacks = [f for e, f in events if e == "checkpoint_fallback"]
        assert fallbacks and "best.npz" in fallbacks[0]["fallback"]

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_trainer_starts_fresh_when_best_npz_is_corrupt_too(
            self, tmp_path, windows, split, mode):
        directory = tmp_path / "run"
        cfg = dict(batch_size=8, max_train_batches=4, patience=10, seed=3)
        trainer = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=2, **cfg))
        trainer.fit(windows, split, horizon=2, checkpoint_dir=directory)
        for name in ("checkpoint.npz", "best.npz"):
            corrupt_file(directory / name, seed=2, mode=mode, n_bits=64)

        resumed = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=2, **cfg))
        events = []
        with pytest.warns(RuntimeWarning, match="corrupt"):
            result = resumed.fit(
                windows, split, horizon=2, checkpoint_dir=directory,
                resume=True,
                telemetry=lambda e, f: events.append((e, f)))
        fallbacks = [f for e, f in events if e == "checkpoint_fallback"]
        assert [f["fallback"] for f in fallbacks] == ["fresh start"]
        # A fresh start is the uninterrupted run: no corrupt weight was
        # applied before the fallback.
        fresh = Trainer(_make_model(), _loss,
                        TrainConfig(epochs=2, **cfg)).fit(
                            windows, split, horizon=2)
        assert result.val_losses == fresh.val_losses
        assert result.train_losses == fresh.train_losses


class TestKillAndResume:
    """Interrupting fit after a checkpoint must not change the outcome."""

    CFG = dict(batch_size=8, max_train_batches=4, patience=10, seed=3)

    def _fit_uninterrupted(self, windows, split, epochs):
        trainer = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=epochs, **self.CFG))
        result = trainer.fit(windows, split, horizon=2)
        return trainer, result

    @pytest.mark.parametrize("interrupt_after", [1, 2, 3])
    def test_bit_identical_weights_and_curves(self, tmp_path, windows,
                                              split, interrupt_after):
        epochs = 4
        baseline, expected = self._fit_uninterrupted(windows, split, epochs)

        # "Crash" after `interrupt_after` epochs, then resume in a fresh
        # trainer (new model object, new optimizer) from the checkpoint.
        directory = tmp_path / f"run{interrupt_after}"
        partial = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=interrupt_after, **self.CFG))
        partial.fit(windows, split, horizon=2, checkpoint_dir=directory)
        resumed = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=epochs, **self.CFG))
        result = resumed.fit(windows, split, horizon=2,
                             checkpoint_dir=directory, resume=True)

        assert result.train_losses == expected.train_losses
        assert result.val_losses == expected.val_losses
        assert result.best_epoch == expected.best_epoch
        state, expected_state = (resumed.model.state_dict(),
                                 baseline.model.state_dict())
        for name in expected_state:
            assert np.array_equal(state[name], expected_state[name]), name

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path,
                                                    windows, split):
        trainer = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=2, **self.CFG))
        result = trainer.fit(windows, split, horizon=2,
                             checkpoint_dir=tmp_path / "empty",
                             resume=True)
        assert len(result.val_losses) == 2

    def test_best_npz_written_and_loadable(self, tmp_path, windows, split):
        directory = tmp_path / "ckpt"
        trainer = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=3, **self.CFG))
        result = trainer.fit(windows, split, horizon=2,
                             checkpoint_dir=directory)
        assert (directory / "best.npz").exists()
        assert (directory / "checkpoint.npz").exists()
        clone = _make_model(seed=123)
        load_model(clone, directory / "best.npz")
        # fit restores the best weights, so best.npz == final weights
        for name, value in trainer.model.state_dict().items():
            assert np.array_equal(clone.state_dict()[name], value)
        assert result.best_epoch >= 0

    def test_checkpoint_every_respected(self, tmp_path, windows, split):
        directory = tmp_path / "sparse"
        trainer = Trainer(_make_model(), _loss,
                          TrainConfig(epochs=3, **self.CFG))
        trainer.fit(windows, split, horizon=2, checkpoint_dir=directory,
                    checkpoint_every=2)
        checkpoint = load_checkpoint(directory / "checkpoint.npz")
        assert checkpoint.epoch == 1             # epochs 0,1 -> one write
