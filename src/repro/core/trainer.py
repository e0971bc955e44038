"""Training loop shared by BF, AF, and the deep-learning baselines.

Implements the paper's published optimization recipe (§VI-A5): Adam with
initial learning rate 0.001, decay ×0.8 every 5 epochs, dropout 0.2 in the
models, early stopping on validation loss with best-weight restoration.

Long runs are crash-safe: ``fit(checkpoint_dir=...)`` writes an atomic
rolling checkpoint (model + optimizer + scheduler + curves + every RNG
the loop consumes) plus a ``best.npz``, and ``resume=True`` continues an
interrupted run with bit-identical final weights versus an uninterrupted
one.  Per-epoch progress can be streamed as JSONL events through the
optional ``telemetry`` hook (see :mod:`repro.telemetry`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from ..autodiff.module import Module
from ..autodiff.optim import Adam, StepDecay, clip_grad_norm
from ..autodiff.tensor import Tensor
from ..contracts import check_finite, get_contract_policy
from ..histograms.windows import Split, WindowDataset
from ..telemetry import TelemetrySink, emit, peak_rss_mb
from .losses import masked_frobenius
from .recovery import publish

LossFn = Callable[[Tensor, np.ndarray, np.ndarray,
                   Optional[Tensor], Optional[Tensor]], Tensor]

#: Rolling-checkpoint and best-weights file names inside checkpoint_dir.
CHECKPOINT_NAME = "checkpoint.npz"
BEST_NAME = "best.npz"

#: Valid settings for TrainConfig.on_nonfinite_grad.
NONFINITE_GRAD_POLICIES = ("skip", "halve_lr", "abort")


class NonFiniteGradError(FloatingPointError):
    """A training batch produced a NaN/Inf gradient and the configured
    policy is ``"abort"`` (see :class:`TrainConfig.on_nonfinite_grad`).

    Carries ``epoch`` and ``batch`` so harnesses can report where the
    gradient blew up; rerun inside
    :func:`repro.autodiff.detect_anomaly` to learn *which op* produced
    the first non-finite value.
    """

    def __init__(self, message: str, epoch: int = -1, batch: int = -1):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    """Optimization hyper-parameters (defaults follow the paper)."""

    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    decay_factor: float = 0.8
    decay_every: int = 5
    clip_norm: float = 5.0
    patience: int = 8
    seed: int = 0
    max_train_batches: Optional[int] = None
    max_val_batches: Optional[int] = None
    verbose: bool = False
    #: What to do when a batch yields a non-finite gradient norm:
    #: ``"skip"`` drops the update and keeps going, ``"halve_lr"`` drops
    #: the update and halves the learning rate, ``"abort"`` raises
    #: :class:`NonFiniteGradError`.  Every occurrence emits a
    #: ``nonfinite_grad`` telemetry event.
    on_nonfinite_grad: str = "skip"

    def __post_init__(self):
        if self.on_nonfinite_grad not in NONFINITE_GRAD_POLICIES:
            raise ValueError(
                f"on_nonfinite_grad must be one of "
                f"{NONFINITE_GRAD_POLICIES}, got "
                f"{self.on_nonfinite_grad!r}")


@dataclass
class TrainResult:
    """Learning curves and timing returned by :meth:`Trainer.fit`."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    seconds: float = 0.0
    #: True when training stopped because validation loss went non-finite.
    diverged: bool = False


def _module_rngs(model: Module) -> List[np.random.Generator]:
    """Every distinct Generator owned by the model's modules (dropout).

    Discovery order is the deterministic module-tree walk, so states can
    be saved and restored positionally across processes.
    """
    rngs, seen = [], set()
    for module in model.modules():
        for value in vars(module).values():
            if isinstance(value, np.random.Generator) \
                    and id(value) not in seen:
                seen.add(id(value))
                rngs.append(value)
    return rngs


def _global_grad_norm(parameters) -> float:
    """L2 norm over all parameter gradients (NaN/Inf propagate)."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float(np.sum(np.square(parameter.grad)))
    return float(np.sqrt(total))


class Trainer:
    """Fits a forecasting model on windowed OD tensor data.

    The model contract is ``model(history, horizon) -> (prediction,
    r_factors, c_factors)`` where the factor tensors may be ``None`` (as
    for the FC baseline); ``loss_fn(prediction, truth, mask, r, c)``
    builds the training objective.
    """

    def __init__(self, model: Module, loss_fn: LossFn,
                 config: TrainConfig = None, sharding=None):
        self.model = model
        self.loss_fn = loss_fn
        self.config = config or TrainConfig()
        self.sharding = sharding
        if sharding is not None:
            if not hasattr(model, "set_sharding"):
                raise ValueError(
                    f"{type(model).__name__} does not support sharded "
                    f"execution (no set_sharding hook)")
            model.set_sharding(sharding)
        self.optimizer = Adam(model.parameters(),
                              lr=self.config.learning_rate)
        self.scheduler = StepDecay(self.optimizer,
                                   factor=self.config.decay_factor,
                                   every=self.config.decay_every)

    # ------------------------------------------------------------------
    def fit(self, dataset: WindowDataset, split: Split, horizon: int,
            checkpoint_dir: Optional[str] = None,
            checkpoint_every: int = 1, resume: bool = False,
            telemetry: TelemetrySink = None,
            after_backward: Optional[Callable] = None) -> TrainResult:
        """Train with early stopping; optionally crash-safe.

        With ``checkpoint_dir`` set, a rolling ``checkpoint.npz`` is
        written atomically every ``checkpoint_every`` epochs and
        ``best.npz`` tracks the best validation weights.  ``resume=True``
        picks up from the rolling checkpoint (if present) and produces
        bit-identical final weights and loss curves versus a run that
        was never interrupted; a corrupt rolling checkpoint falls back
        to ``best.npz``, or to a fresh start when that is missing or
        corrupt too, with a warning instead of crashing.
        ``telemetry`` receives the per-epoch events documented in
        :mod:`repro.telemetry`.  ``after_backward(model, epoch, batch)``
        is called after each backward pass, before gradient clipping —
        the hook point used by :mod:`repro.faultinject` to poison
        gradients; user callbacks may also inspect or edit them here.

        Incoming batches are checked against the data contract
        (non-finite histories/targets hard-error, boundary
        ``"trainer.fit"``) unless the process-wide contract policy is
        ``"off"``.  Non-finite *gradients* are governed by
        :attr:`TrainConfig.on_nonfinite_grad`.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        result = TrainResult()
        best_state = self.model.state_dict()
        stall = 0
        start_epoch = 0
        checkpoint_path = best_path = None
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            checkpoint_path = directory / CHECKPOINT_NAME
            best_path = directory / BEST_NAME
            if resume and checkpoint_path.exists():
                start_epoch, best_state, stall = self._restore(
                    checkpoint_path, best_path, rng, result, telemetry)
        emit(telemetry, "fit_start", epochs=cfg.epochs,
             start_epoch=start_epoch, n_train=len(split.train),
             n_val=len(split.val))
        if self.sharding is not None:
            plan = self.sharding.plan
            emit(telemetry, "sharding",
                 units=plan.n_origin_shards + plan.n_dest_shards,
                 **self.sharding.describe())
        contracts = get_contract_policy()
        # One parameter-list walk per fit, not one per batch: the
        # optimizer already holds the model's parameters in traversal
        # order, and gradient clipping only needs that list.
        params = self.optimizer.parameters
        start = time.time() - result.seconds    # accumulate across resumes
        for epoch in range(start_epoch, cfg.epochs):
            epoch_start = time.time()
            self.model.train()
            epoch_losses = []
            grad_norms = []
            batches = dataset.batches(split.train, cfg.batch_size, rng=rng)
            for b, (histories, targets, masks) in enumerate(batches):
                if cfg.max_train_batches is not None \
                        and b >= cfg.max_train_batches:
                    break
                if contracts.enabled:
                    check_finite(histories, f"batch[{b}] histories",
                                 "trainer.fit", contracts)
                    check_finite(targets, f"batch[{b}] targets",
                                 "trainer.fit", contracts)
                prediction, r, c = self.model(histories, horizon)
                loss = self.loss_fn(prediction, targets, masks, r, c)
                self.optimizer.zero_grad()
                loss.backward()
                if after_backward is not None:
                    after_backward(self.model, epoch, b)
                if cfg.clip_norm:
                    grad_norm = clip_grad_norm(params, cfg.clip_norm)
                else:
                    grad_norm = _global_grad_norm(params)
                if not np.isfinite(grad_norm):
                    self._handle_nonfinite_grad(grad_norm, epoch, b,
                                                telemetry)
                    continue    # never step on a poisoned gradient
                grad_norms.append(grad_norm)
                self.optimizer.step()
                epoch_losses.append(loss.item())
            self.scheduler.step()
            train_loss = float(np.mean(epoch_losses)) if epoch_losses \
                else float("nan")
            val_loss = self.evaluate(dataset, split.val, horizon,
                                     max_batches=cfg.max_val_batches)
            result.train_losses.append(train_loss)
            result.val_losses.append(val_loss)
            if cfg.verbose:
                print(f"epoch {epoch + 1:3d}  train {train_loss:.5f}  "
                      f"val {val_loss:.5f}  lr {self.optimizer.lr:.2e}")
            emit(telemetry, "epoch", epoch=epoch, train_loss=train_loss,
                 val_loss=val_loss, lr=self.optimizer.lr,
                 grad_norm=(float(np.mean(grad_norms))
                            if grad_norms else None),
                 seconds=time.time() - epoch_start,
                 peak_rss_mb=peak_rss_mb())
            if not np.isfinite(val_loss):
                # A diverged run must not masquerade as a trained one:
                # flag it, tell the caller, and stop consuming epochs.
                result.diverged = True
                warnings.warn(
                    f"validation loss became non-finite ({val_loss}) at "
                    f"epoch {epoch + 1}; stopping early and restoring "
                    f"the best weights seen so far (epoch "
                    f"{result.best_epoch + 1})", RuntimeWarning)
                emit(telemetry, "divergence", epoch=epoch,
                     val_loss=val_loss)
                break
            if val_loss < result.best_val_loss - 1e-7:
                result.best_val_loss = val_loss
                result.best_epoch = epoch
                best_state = self.model.state_dict()
                stall = 0
                if best_path is not None:
                    from ..persistence import save_model
                    save_model(self.model, best_path)
            else:
                stall += 1
                if stall >= cfg.patience:
                    emit(telemetry, "early_stop", epoch=epoch, stall=stall)
                    break
            if checkpoint_path is not None \
                    and (epoch + 1) % max(checkpoint_every, 1) == 0:
                result.seconds = time.time() - start
                self._checkpoint(checkpoint_path, epoch, rng, result,
                                 best_state, stall)
                emit(telemetry, "checkpoint", epoch=epoch,
                     path=str(checkpoint_path))
        self.model.load_state_dict(best_state)
        result.seconds = time.time() - start
        emit(telemetry, "fit_end", epochs_run=len(result.val_losses),
             best_epoch=result.best_epoch,
             best_val_loss=result.best_val_loss, seconds=result.seconds,
             diverged=result.diverged)
        return result

    # ------------------------------------------------------------------
    def _handle_nonfinite_grad(self, grad_norm: float, epoch: int,
                               batch: int,
                               telemetry: TelemetrySink) -> None:
        """Apply :attr:`TrainConfig.on_nonfinite_grad`.

        The caller has already decided to drop the update; this method
        only reports and applies the policy's side effect.
        """
        action = self.config.on_nonfinite_grad
        emit(telemetry, "nonfinite_grad", epoch=epoch, batch=batch,
             grad_norm=float(grad_norm), action=action,
             lr=self.optimizer.lr)
        if action == "abort":
            raise NonFiniteGradError(
                f"gradient norm became {grad_norm} at epoch {epoch + 1}, "
                f"batch {batch} (on_nonfinite_grad='abort'); rerun under "
                f"repro.autodiff.detect_anomaly() to find the op that "
                f"produced it", epoch=epoch, batch=batch)
        if action == "halve_lr":
            # Through the scheduler, so the halving sticks across its
            # per-epoch recompute and across checkpoint resumes.
            self.scheduler.scale_lr(0.5)
        warnings.warn(
            f"non-finite gradient norm ({grad_norm}) at epoch "
            f"{epoch + 1}, batch {batch}; update dropped "
            f"(policy: {action})", RuntimeWarning)

    # ------------------------------------------------------------------
    def _checkpoint(self, path: Path, epoch: int,
                    rng: np.random.Generator, result: TrainResult,
                    best_state: dict, stall: int) -> None:
        """Write the rolling checkpoint (atomic; see persistence docs)."""
        from ..persistence import save_checkpoint
        save_checkpoint(
            path, self.model, optimizer=self.optimizer,
            scheduler=self.scheduler, epoch=epoch, result=result,
            rng_state=rng.bit_generator.state, best_state=best_state,
            extra={"stall": stall,
                   "module_rng": [g.bit_generator.state
                                  for g in _module_rngs(self.model)]})

    def _restore(self, path: Path, best_path: Optional[Path],
                 rng: np.random.Generator, result: TrainResult,
                 telemetry: TelemetrySink = None):
        """Load the rolling checkpoint into the live training objects.

        A corrupt rolling checkpoint (truncated or bit-flipped on disk)
        does not kill the run: training falls back to the ``best.npz``
        weights if present — restarting the epoch count, since optimizer
        and curve state died with the checkpoint — or to a fresh start
        when ``best.npz`` is missing or corrupt too, each with a warning
        and a ``checkpoint_fallback`` telemetry event.
        """
        from ..persistence import CheckpointCorruptError, load_checkpoint
        try:
            checkpoint = load_checkpoint(path, model=self.model,
                                         optimizer=self.optimizer,
                                         scheduler=self.scheduler)
        except CheckpointCorruptError as exc:
            fallback, error = "fresh start", str(exc)
            if best_path is not None and best_path.exists():
                from ..persistence import load_model
                try:
                    load_model(self.model, best_path)
                    fallback = f"best weights from {best_path.name}"
                except CheckpointCorruptError as best_exc:
                    error = f"{error}; {best_exc}"
            warnings.warn(
                f"rolling checkpoint {path} is corrupt ({error}); "
                f"resuming from {fallback} at epoch 1", RuntimeWarning)
            emit(telemetry, "checkpoint_fallback", path=str(path),
                 fallback=fallback, error=error)
            return 0, self.model.state_dict(), 0
        if checkpoint.rng_state is not None:
            rng.bit_generator.state = checkpoint.rng_state
        module_states = checkpoint.extra.get("module_rng", [])
        for generator, state in zip(_module_rngs(self.model),
                                    module_states):
            generator.bit_generator.state = state
        saved = checkpoint.result_state or {}
        result.train_losses[:] = saved.get("train_losses", [])
        result.val_losses[:] = saved.get("val_losses", [])
        result.best_epoch = saved.get("best_epoch", -1)
        result.best_val_loss = saved.get("best_val_loss", float("inf"))
        result.seconds = saved.get("seconds", 0.0)
        result.diverged = saved.get("diverged", False)
        best_state = checkpoint.best_state or self.model.state_dict()
        return checkpoint.epoch + 1, best_state, \
            int(checkpoint.extra.get("stall", 0))

    # ------------------------------------------------------------------
    def evaluate(self, dataset: WindowDataset, indices: np.ndarray,
                 horizon: int, max_batches: Optional[int] = None) -> float:
        """Mean masked-Frobenius data loss over the given windows."""
        was_training = self.model.training
        self.model.eval()
        losses = []
        batches = dataset.batches(indices, self.config.batch_size)
        for b, (histories, targets, masks) in enumerate(batches):
            if max_batches is not None and b >= max_batches:
                break
            prediction, _, _ = self.model(histories, horizon)
            losses.append(masked_frobenius(prediction, targets,
                                           masks).item())
        if was_training:
            self.model.train()
        return float(np.mean(losses)) if losses else float("nan")

    # ------------------------------------------------------------------
    def predict(self, dataset: WindowDataset, indices: np.ndarray,
                horizon: int) -> np.ndarray:
        """Forecast tensors for the given windows, ``(B, h, N, N', K)``,
        published as float64 histograms (:func:`~.recovery.publish`)."""
        was_training = self.model.training
        self.model.eval()
        outputs = []
        for histories, _, _ in dataset.batches(indices,
                                               self.config.batch_size):
            prediction, _, _ = self.model(histories, horizon)
            outputs.append(publish(prediction.numpy()))
        if was_training:
            self.model.train()
        return np.concatenate(outputs, axis=0)
