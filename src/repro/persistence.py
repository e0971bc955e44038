"""Saving and loading models, checkpoints, tensor sequences, and results.

Everything serializes to plain ``.npz``/JSON files so artifacts remain
readable without this library:

* model weights — ``save_model`` / ``load_model`` wrap the Module
  state-dict as an npz archive;
* training checkpoints — ``save_checkpoint`` / ``load_checkpoint``
  bundle model + optimizer + scheduler + learning curves + RNG state +
  epoch into one atomic ``.npz`` artifact (arrays as npz entries, all
  scalar/structured state as an embedded JSON record under the
  ``__meta__`` key), written temp-then-rename so a crash mid-write
  never corrupts the previous checkpoint;
* per-method results — ``save_method_result`` / ``load_method_result``
  make roster runs resumable (see ``run_comparison(artifact_dir=...)``);
* OD tensor sequences — the expensive aggregation output can be cached
  to disk and reloaded for repeated experiments;
* comparison results — exported as JSON rows for external plotting.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .autodiff.module import Module
from .contracts import ContractPolicy, check_finite, validate_sequence
from .experiments.runner import ComparisonResult, MethodResult
from .histograms.histogram import HistogramSpec
from .histograms.tensor_builder import ODTensorSequence
from .metrics.evaluation import EvaluationResult

PathLike = Union[str, Path]

#: Bumped when the on-disk checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 3


class CheckpointCorruptError(ValueError):
    """A checkpoint file is unreadable or fails its integrity checks.

    Raised for truncated archives, bit-flipped payloads (zip CRC or
    embedded SHA-256 mismatch), and files that are not checkpoints at
    all — never the raw ``zipfile``/``KeyError`` tracebacks those would
    otherwise surface as.  Subclasses :class:`ValueError` so existing
    ``except ValueError`` callers keep working.
    """


def _state_digest(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape, and bytes.

    Iteration is name-sorted so the digest is layout-independent; the
    ``__meta__`` entry is excluded (the digest is stored inside it).
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        if name == "__meta__":
            continue
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def _meta_json(meta: dict) -> np.ndarray:
    """Encode a metadata dict as a uint8 JSON blob for an npz entry."""
    def coerce(value):
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(f"not JSON serializable: {type(value).__name__}")
    return np.frombuffer(json.dumps(meta, default=coerce).encode("utf-8"),
                         dtype=np.uint8)


def _atomic_savez(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` atomically: temp file in-dir, then rename."""
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------
def save_model(model: Module, path: PathLike) -> None:
    """Write a module's weights to an ``.npz`` archive (atomically)."""
    state = model.state_dict()
    _atomic_savez(Path(path), state)


def load_model(model: Module, path: PathLike) -> Module:
    """Load weights saved by :func:`save_model` into ``model`` (strict).

    The module must already be constructed with matching architecture;
    returns the same module for chaining.  An unreadable archive
    (truncated, bit-flipped) raises :class:`CheckpointCorruptError`
    before any weight is applied.
    """
    model.load_state_dict(_read_npz_entries(path, "model archive"))
    return model


# ----------------------------------------------------------------------
# training checkpoints
# ----------------------------------------------------------------------
@dataclass
class Checkpoint:
    """A loaded training checkpoint (see :func:`save_checkpoint`)."""

    epoch: int
    model_state: Dict[str, np.ndarray]
    optimizer_state: Optional[dict] = None
    scheduler_state: Optional[dict] = None
    rng_state: Optional[dict] = None
    result_state: Optional[dict] = None
    best_state: Optional[Dict[str, np.ndarray]] = None
    extra: dict = field(default_factory=dict)


def save_checkpoint(path: PathLike, model: Module, optimizer=None,
                    scheduler=None, epoch: int = -1, result=None,
                    rng_state: Optional[dict] = None,
                    best_state: Optional[Dict[str, np.ndarray]] = None,
                    extra: Optional[dict] = None) -> None:
    """Bundle the full training state into one atomic ``.npz`` artifact.

    Layout: model weights under ``model/<name>``, best-so-far weights
    under ``best/<name>``, per-parameter optimizer slots under
    ``optim/<slot>/<index>``, and everything scalar or structured
    (epoch, optimizer/scheduler scalars, the shuffle RNG's
    ``bit_generator.state``, the :class:`~repro.core.trainer.TrainResult`
    fields, caller extras) as a JSON document in the ``__meta__`` entry.
    The file is written to a temp name and renamed into place, so an
    interrupted save leaves the previous checkpoint intact.

    ``result`` may be a dataclass (e.g. ``TrainResult``) or a plain
    dict; ``rng_state`` is ``rng.bit_generator.state``.
    """
    arrays: Dict[str, np.ndarray] = {}
    meta: dict = {"format_version": CHECKPOINT_FORMAT_VERSION,
                  "epoch": int(epoch)}
    for name, value in model.state_dict().items():
        arrays[f"model/{name}"] = value
    if best_state is not None:
        for name, value in best_state.items():
            arrays[f"best/{name}"] = value
    if optimizer is not None:
        state = optimizer.state_dict()
        scalars = {}
        for key, value in state.items():
            if isinstance(value, (list, tuple)):       # per-param slots
                for i, slot in enumerate(value):
                    arrays[f"optim/{key}/{i}"] = np.asarray(slot)
            else:
                scalars[key] = value
        meta["optimizer"] = {"type": type(optimizer).__name__,
                             "scalars": scalars}
    if scheduler is not None:
        meta["scheduler"] = scheduler.state_dict()
    if rng_state is not None:
        meta["rng_state"] = rng_state
    if result is not None:
        if not isinstance(result, dict):
            from dataclasses import asdict
            result = asdict(result)
        meta["result"] = result
    if extra:
        meta["extra"] = extra
    # Embedded integrity checksum: recomputed on load so silent on-disk
    # corruption (bit flips that keep the zip structure intact) is
    # caught as CheckpointCorruptError instead of restoring garbage.
    meta["checksum"] = _state_digest(arrays)
    arrays["__meta__"] = _meta_json(meta)
    _atomic_savez(Path(path), arrays)


def _read_npz_entries(path: PathLike, kind: str) -> Dict[str, np.ndarray]:
    """Read every array of an ``.npz``, mapping low-level failures
    (truncated file, bad zip, CRC mismatch, mangled pickle headers) to
    :class:`CheckpointCorruptError`."""
    try:
        with np.load(str(path)) as archive:
            return {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, KeyError,
            ValueError) as exc:
        raise CheckpointCorruptError(
            f"{path} is not a readable {kind} "
            f"({type(exc).__name__}: {exc})") from exc


def load_checkpoint(path: PathLike, model: Optional[Module] = None,
                    optimizer=None, scheduler=None) -> Checkpoint:
    """Read a checkpoint; restore any of model/optimizer/scheduler in place.

    Returns the full :class:`Checkpoint` so callers can also recover the
    epoch counter, RNG state, learning curves, and best-so-far weights.
    Raises :class:`CheckpointCorruptError` for truncated/bit-flipped/
    wrong-schema files (see :class:`~repro.core.trainer.Trainer`, whose
    resume path falls back to ``best.npz`` on corruption).
    """
    entries = _read_npz_entries(path, "checkpoint")
    if "__meta__" not in entries:
        raise CheckpointCorruptError(
            f"{path} is not a checkpoint (missing __meta__ entry; "
            f"found {sorted(entries)[:5]})")
    try:
        meta = json.loads(bytes(entries.pop("__meta__")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"{path} has an unreadable __meta__ record "
            f"({type(exc).__name__}: {exc})") from exc
    if not isinstance(meta, dict):
        raise CheckpointCorruptError(
            f"{path} __meta__ is {type(meta).__name__}, expected a dict")
    expected = meta.get("checksum")
    if expected is not None and _state_digest(entries) != expected:
        raise CheckpointCorruptError(
            f"{path} failed its integrity check: embedded SHA-256 does "
            f"not match the stored arrays (file corrupted on disk?)")
    version = meta.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})")
    if "epoch" not in meta:
        raise CheckpointCorruptError(
            f"{path} has checkpoint metadata but no epoch record "
            f"(keys: {sorted(meta)})")
    model_state, best_state, optim_slots = {}, {}, {}
    for name, value in entries.items():
        kind, _, rest = name.partition("/")
        if kind == "model":
            model_state[rest] = value
        elif kind == "best":
            best_state[rest] = value
        elif kind == "optim":
            slot, _, index = rest.partition("/")
            optim_slots.setdefault(slot, {})[int(index)] = value
    optimizer_state = None
    if "optimizer" in meta:
        optimizer_state = dict(meta["optimizer"]["scalars"])
        optimizer_state["type"] = meta["optimizer"]["type"]
        for slot, indexed in optim_slots.items():
            optimizer_state[slot] = [indexed[i]
                                     for i in sorted(indexed)]
    for name, value in model_state.items():
        check_finite(value, f"model/{name}", "load_checkpoint")
    checkpoint = Checkpoint(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        optimizer_state=optimizer_state,
        scheduler_state=meta.get("scheduler"),
        rng_state=meta.get("rng_state"),
        result_state=meta.get("result"),
        best_state=best_state or None,
        extra=meta.get("extra", {}))
    if model is not None:
        model.load_state_dict(checkpoint.model_state)
    if optimizer is not None:
        if optimizer_state is None:
            raise ValueError(f"{path} holds no optimizer state")
        expected = type(optimizer).__name__
        if optimizer_state["type"] != expected:
            raise ValueError(
                f"checkpoint optimizer is {optimizer_state['type']}, "
                f"got a {expected} to restore into")
        optimizer.load_state_dict(
            {k: v for k, v in optimizer_state.items() if k != "type"})
    if scheduler is not None:
        if checkpoint.scheduler_state is None:
            raise ValueError(f"{path} holds no scheduler state")
        scheduler.load_state_dict(checkpoint.scheduler_state)
    return checkpoint


# ----------------------------------------------------------------------
# per-method roster artifacts
# ----------------------------------------------------------------------
def save_method_result(result: MethodResult, path: PathLike) -> None:
    """Persist one roster method's evaluation for later resumption."""
    arrays: Dict[str, np.ndarray] = {}
    meta = {"format_version": CHECKPOINT_FORMAT_VERSION,
            "name": result.name,
            "fit_seconds": float(result.fit_seconds),
            "error": result.error}
    if result.evaluation is not None:
        meta["metrics"] = sorted(result.evaluation.per_step)
        for metric, values in result.evaluation.per_step.items():
            arrays[f"per_step/{metric}"] = np.asarray(values)
        arrays["n_cells"] = np.asarray(result.evaluation.n_cells)
    if result.predictions is not None:
        arrays["predictions"] = result.predictions
    if result.test_indices is not None:
        arrays["test_indices"] = np.asarray(result.test_indices)
    arrays["__meta__"] = _meta_json(meta)
    _atomic_savez(Path(path), arrays)


def load_method_result(path: PathLike) -> MethodResult:
    """Read back a method result saved by :func:`save_method_result`."""
    with np.load(str(path)) as archive:
        entries = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(entries.pop("__meta__")).decode("utf-8"))
    evaluation = None
    if "metrics" in meta:
        evaluation = EvaluationResult(
            per_step={metric: entries[f"per_step/{metric}"]
                      for metric in meta["metrics"]},
            n_cells=entries["n_cells"])
    return MethodResult(
        name=meta["name"], evaluation=evaluation,
        fit_seconds=meta["fit_seconds"],
        predictions=entries.get("predictions"),
        test_indices=entries.get("test_indices"),
        error=meta.get("error"))


# ----------------------------------------------------------------------
# OD tensor sequences
# ----------------------------------------------------------------------
def save_sequence(sequence: ODTensorSequence, path: PathLike) -> None:
    """Persist an OD tensor sequence (tensors, mask, counts, metadata).

    Tensors and counts are stored as **float32** to halve the artifact
    size: histogram cells live in [0, 1] where float32 keeps ~7
    significant digits, far below the sampling noise of the counts that
    produced them.  The round-trip is therefore lossy at the ~1e-7
    level — in particular, histograms that summed to exactly 1.0 in
    float64 may be off by a few ULPs after reload, which is why
    :func:`load_sequence` renormalizes them.
    """
    np.savez_compressed(
        str(path),
        tensors=sequence.tensors.astype(np.float32),
        mask=sequence.mask,
        counts=sequence.counts.astype(np.float32),
        edges=np.asarray(sequence.spec.edges, dtype=np.float64),
        interval_minutes=np.float64(sequence.interval_minutes))


def load_sequence(path: PathLike,
                  policy: Optional[ContractPolicy] = None
                  ) -> ODTensorSequence:
    """Load a sequence saved by :func:`save_sequence`.

    Restores float64 and renormalizes each observed cell's histogram to
    sum to exactly 1 again, undoing the float32 quantization of
    :func:`save_sequence` (empty cells — all-zero histograms — are left
    untouched).  The reloaded sequence then passes through the full
    data contract (:func:`repro.contracts.validate_sequence`, boundary
    ``"load_sequence"``) under ``policy`` (default: the process-wide
    :func:`~repro.contracts.get_contract_policy`), so NaN payloads
    hard-error and malformed cells are quarantined rather than fed to
    training.
    """
    entries = _read_npz_entries(path, "tensor-sequence archive")
    for key in ("tensors", "mask", "counts", "edges", "interval_minutes"):
        if key not in entries:
            raise CheckpointCorruptError(
                f"{path} is not a tensor-sequence archive "
                f"(missing {key!r}; found {sorted(entries)[:6]})")
    spec = HistogramSpec(edges=tuple(entries["edges"]))
    tensors = entries["tensors"].astype(np.float64)
    totals = tensors.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        np.divide(tensors, totals, out=tensors, where=totals > 0)
    sequence = ODTensorSequence(
        tensors=tensors,
        mask=entries["mask"].astype(bool),
        counts=entries["counts"].astype(np.float64),
        spec=spec,
        interval_minutes=float(entries["interval_minutes"]),
        _validated=True)    # validated just below, with the caller's policy
    return validate_sequence(sequence, "load_sequence", policy)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def export_comparison(result: ComparisonResult, path: PathLike) -> None:
    """Dump a comparison's per-step metric rows as JSON."""
    payload = {
        "s": result.s,
        "h": result.h,
        "rows": result.table(),
        "fit_seconds": {name: method.fit_seconds
                        for name, method in result.methods.items()},
        "failures": result.failures(),
    }
    Path(path).write_text(json.dumps(payload, indent=2))
