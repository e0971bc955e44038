"""Experiment runner: fit → forecast → evaluate, for a roster of methods.

This is the engine behind the Table II and figure benchmarks: it wires a
city dataset through the windowing, fits every requested method once per
``s`` setting with the maximum horizon, and scores per-step KL/JS/EMD on
the test windows — the protocol of the paper's §VI.

Methods are independent once the data is prepared (every stochastic
component draws from its own seeded generator), so the roster can train
in parallel worker processes: pass ``n_jobs`` to :func:`run_comparison`
or set ``REPRO_BENCH_JOBS``.  Results are bit-for-bit identical to a
sequential run.

The roster is fault-isolated and resumable: a method that raises (or,
in worker mode, a worker that dies or hangs past ``method_timeout``) is
recorded as a :class:`MethodResult` with its ``error`` instead of
aborting the whole comparison; timeouts and crashes get one retry by
default; and ``artifact_dir`` persists every completed method so a
rerun skips work already done.  Per-method start/finish/fail events can
be streamed through the optional ``telemetry`` hook
(:mod:`repro.telemetry`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..baselines.base import Forecaster
from ..histograms.tensor_builder import ODTensorSequence, build_od_tensors
from ..histograms.windows import (Split, WindowDataset,
                                  chronological_split)
from ..metrics.evaluation import EvaluationResult, evaluate_forecasts
from ..telemetry import TelemetrySink, emit
from ..trips.datasets import CityDataset

MethodFactory = Callable[["ExperimentData"], Forecaster]


@dataclass
class ExperimentData:
    """A city dataset prepared for forecasting experiments."""

    dataset: CityDataset
    sequence: ODTensorSequence
    windows: WindowDataset
    split: Split

    @property
    def city(self):
        return self.dataset.city

    def origin_proximity(self) -> np.ndarray:
        return self.city.proximity()

    def dest_proximity(self) -> np.ndarray:
        return self.city.proximity()


def prepare(dataset: CityDataset, s: int, h: int,
            train_fraction: float = 0.7,
            val_fraction: float = 0.1) -> ExperimentData:
    """Build tensors, windows, and the chronological split for a city."""
    sequence = build_od_tensors(dataset.trips, dataset.city,
                                n_intervals=dataset.field.n_intervals)
    windows = WindowDataset(sequence, s=s, h=h)
    split = chronological_split(windows, train_fraction, val_fraction)
    return ExperimentData(dataset=dataset, sequence=sequence,
                          windows=windows, split=split)


@dataclass
class MethodResult:
    """Evaluation of one fitted method.

    ``evaluation`` is ``None`` — and ``error`` holds the reason — when
    the method failed (raised, crashed its worker, or timed out).
    """

    name: str
    evaluation: Optional[EvaluationResult] = None
    fit_seconds: float = 0.0
    predictions: Optional[np.ndarray] = None
    test_indices: Optional[np.ndarray] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ComparisonResult:
    """All methods' results for one (dataset, s, h) setting."""

    s: int
    h: int
    methods: Dict[str, MethodResult] = field(default_factory=dict)

    def failures(self) -> Dict[str, str]:
        """``{method: error}`` for every method that failed."""
        return {name: result.error
                for name, result in self.methods.items()
                if result.failed}

    def table(self, metrics: Sequence[str] = ("kl", "js", "emd")
              ) -> List[dict]:
        """Rows: one per method per forecast step (Table II layout).

        Failed methods contribute no rows; see :meth:`failures`.
        """
        rows = []
        for name, result in self.methods.items():
            if result.evaluation is None:
                continue
            for k in range(self.h):
                row = {"method": name, "step": k + 1}
                for metric in metrics:
                    row[metric] = float(
                        result.evaluation.per_step[metric][k])
                rows.append(row)
        return rows

    def format_table(self, metrics: Sequence[str] = ("kl", "js", "emd")
                     ) -> str:
        """Human-readable fixed-width table (failures listed at the end)."""
        lines = [f"s={self.s}  (rows: method x step)"]
        header = f"{'method':8s} {'step':>4s} " + " ".join(
            f"{m:>8s}" for m in metrics)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.table(metrics):
            lines.append(
                f"{row['method']:8s} {row['step']:4d} " + " ".join(
                    f"{row[m]:8.4f}" for m in metrics))
        for name, error in self.failures().items():
            lines.append(f"{name:8s} FAILED: {error}")
        return "\n".join(lines)


def _fit_and_score(name: str, factory: MethodFactory, data: ExperimentData,
                   test: np.ndarray, truth: np.ndarray, masks: np.ndarray,
                   keep_predictions: bool) -> MethodResult:
    """Build, train, and evaluate one method (shared by both run modes)."""
    windows, split = data.windows, data.split
    h = windows.h
    forecaster = factory(data)
    start = time.time()
    forecaster.fit(windows, split, horizon=h)
    fit_seconds = time.time() - start
    predictions = forecaster.predict(windows, test, horizon=h)
    evaluation = evaluate_forecasts(truth, predictions, masks)
    return MethodResult(
        name=name, evaluation=evaluation, fit_seconds=fit_seconds,
        # Stored as float32: kept predictions feed the figure
        # groupings, where 1e-7 histogram error is immaterial, and a
        # full-city test set is hundreds of MB in float64.
        predictions=(predictions.astype(np.float32)
                     if keep_predictions else None),
        test_indices=test)


def _fit_and_score_safe(name: str, factory: MethodFactory,
                        data: ExperimentData, test: np.ndarray,
                        truth: np.ndarray, masks: np.ndarray,
                        keep_predictions: bool) -> MethodResult:
    """Like :func:`_fit_and_score` but an exception becomes a recorded
    failure instead of aborting the roster."""
    try:
        return _fit_and_score(name, factory, data, test, truth, masks,
                              keep_predictions)
    except Exception as exc:
        return MethodResult(name=name, evaluation=None,
                            error=f"{type(exc).__name__}: {exc}")


def _worker_entry(conn, name: str, factory: MethodFactory,
                  data: ExperimentData, test: np.ndarray,
                  truth: np.ndarray, masks: np.ndarray,
                  keep_predictions: bool) -> None:
    """Per-method worker process: runs one method, ships the result back.

    Started with the ``fork`` context, so ``factory`` (often a lambda)
    and the prepared data are inherited from the parent's memory — only
    the finished :class:`MethodResult` is pickled through the pipe.
    """
    result = _fit_and_score_safe(name, factory, data, test, truth, masks,
                                 keep_predictions)
    try:
        conn.send(result)
    except Exception:
        pass                                     # parent gone; nothing to do
    finally:
        conn.close()


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit ``n_jobs``, else ``REPRO_BENCH_JOBS``.

    Values < 1 mean "one process per roster method" (capped by CPU
    count).  Parallelism needs the ``fork`` start method; where it is
    unavailable the runner silently falls back to sequential execution.
    """
    if n_jobs is None:
        raw = os.environ.get("REPRO_BENCH_JOBS", "1")
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_BENCH_JOBS must be an integer, got {raw!r}"
            ) from None
    if n_jobs < 1:
        n_jobs = os.cpu_count() or 1
    if n_jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return n_jobs


def _run_roster_workers(names: List[str], methods: Dict[str, MethodFactory],
                        data: ExperimentData, test: np.ndarray,
                        truth: np.ndarray, masks: np.ndarray,
                        keep_predictions: bool, n_jobs: int,
                        method_timeout: Optional[float], retries: int,
                        telemetry: TelemetrySink
                        ) -> Dict[str, MethodResult]:
    """Run each method in its own forked worker, at most ``n_jobs`` at once.

    Unlike a shared ``Pool``, one worker dying (or hanging past
    ``method_timeout``) costs only that method: it is retried up to
    ``retries`` times and then recorded as a failure.  Python exceptions
    inside a method are deterministic, so they are recorded without
    retry (the worker reports them as an error-carrying result).
    """
    ctx = multiprocessing.get_context("fork")
    results: Dict[str, MethodResult] = {}
    attempts = {name: 0 for name in names}
    pending = list(names)
    running: Dict[str, tuple] = {}               # name -> (proc, conn, t0)

    def finish(name: str, result: MethodResult) -> None:
        results[name] = result
        if result.failed:
            emit(telemetry, "method_fail", method=name,
                 error=result.error, attempt=attempts[name])
        else:
            emit(telemetry, "method_end", method=name,
                 fit_seconds=result.fit_seconds, attempt=attempts[name])

    def fail_or_retry(name: str, reason: str) -> None:
        if attempts[name] <= retries:
            emit(telemetry, "method_fail", method=name, error=reason,
                 attempt=attempts[name], will_retry=True)
            pending.append(name)
        else:
            finish(name, MethodResult(name=name, error=reason))

    while pending or running:
        while pending and len(running) < n_jobs:
            name = pending.pop(0)
            attempts[name] += 1
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_entry,
                args=(child_conn, name, methods[name], data, test, truth,
                      masks, keep_predictions))
            proc.start()
            child_conn.close()
            emit(telemetry, "method_start", method=name,
                 attempt=attempts[name])
            running[name] = (proc, parent_conn, time.time())
        for name in list(running):
            proc, conn, started = running[name]
            if conn.poll(0.05):
                try:
                    result = conn.recv()
                except EOFError:                 # died mid-send
                    result = None
                proc.join()
                conn.close()
                del running[name]
                if result is None:
                    fail_or_retry(name, "worker process died")
                else:
                    finish(name, result)
            elif method_timeout is not None \
                    and time.time() - started > method_timeout:
                proc.terminate()
                proc.join()
                conn.close()
                del running[name]
                fail_or_retry(
                    name, f"timed out after {method_timeout:.1f}s")
            elif not proc.is_alive():
                proc.join()
                # Drain the race where the worker sent its result and
                # exited between our poll and liveness check.
                if conn.poll(0):
                    try:
                        result = conn.recv()
                    except EOFError:
                        result = None
                else:
                    result = None
                conn.close()
                del running[name]
                if result is None:
                    fail_or_retry(name, "worker process died")
                else:
                    finish(name, result)
    return results


def run_comparison(data: ExperimentData,
                   methods: Dict[str, MethodFactory],
                   keep_predictions: bool = False,
                   max_test_windows: Optional[int] = None,
                   n_jobs: Optional[int] = None,
                   method_timeout: Optional[float] = None,
                   retries: int = 1,
                   artifact_dir: Optional[str] = None,
                   telemetry: TelemetrySink = None
                   ) -> ComparisonResult:
    """Fit and evaluate every method on the prepared data.

    Each method is trained with the dataset's full horizon ``h`` and
    scored per forecast step on the test windows, exactly once.

    ``n_jobs`` (default: the ``REPRO_BENCH_JOBS`` env var, else 1) trains
    methods in that many parallel worker processes.  Every method seeds
    its own generators, so parallel results match sequential ones
    bit-for-bit; only the ``fit_seconds`` wall-clocks differ.

    Failures never abort the roster: a raising method (or a worker that
    crashes or exceeds ``method_timeout`` seconds) is recorded in its
    :class:`MethodResult` under ``error`` while the other methods
    complete; timeouts and crashes are retried up to ``retries`` times.
    ``method_timeout`` requires the ``fork`` start method and is ignored
    where that is unavailable.

    With ``artifact_dir`` set, every successful method is written to
    ``<artifact_dir>/<name>.npz`` and a rerun skips methods whose
    artifact matches the current test windows — so a killed roster run
    resumes where it left off.  ``telemetry`` receives per-method
    start/finish/fail/skip events (see :mod:`repro.telemetry`).
    """
    windows, split = data.windows, data.split
    h = windows.h
    test = split.test
    if max_test_windows is not None and len(test) > max_test_windows:
        # Evenly thin the test windows to bound evaluation cost.
        keep = np.linspace(0, len(test) - 1, max_test_windows).astype(int)
        test = test[keep]
    _, truth, masks = windows.gather(test)
    outcome = ComparisonResult(s=windows.s, h=h)
    n_jobs = resolve_n_jobs(n_jobs)
    names = list(methods)

    completed: Dict[str, MethodResult] = {}
    artifacts: Optional[Path] = None
    if artifact_dir is not None:
        from ..persistence import load_method_result
        artifacts = Path(artifact_dir)
        artifacts.mkdir(parents=True, exist_ok=True)
        for name in names:
            path = artifacts / f"{name}.npz"
            if not path.exists():
                continue
            try:
                saved = load_method_result(path)
            except Exception:
                continue                         # unreadable: recompute
            # Only reuse clean results scored on the same test windows.
            if saved.error is None \
                    and np.array_equal(saved.test_indices, test):
                completed[name] = saved
                emit(telemetry, "method_skip", method=name,
                     reason="artifact exists")
    todo = [name for name in names if name not in completed]

    use_workers = (n_jobs > 1 or method_timeout is not None) \
        and "fork" in multiprocessing.get_all_start_methods()
    if use_workers and todo:
        fitted = _run_roster_workers(
            todo, methods, data, test, truth, masks, keep_predictions,
            max(n_jobs, 1), method_timeout, retries, telemetry)
    else:
        fitted = {}
        for name in todo:
            emit(telemetry, "method_start", method=name, attempt=1)
            result = _fit_and_score_safe(name, methods[name], data, test,
                                         truth, masks, keep_predictions)
            fitted[name] = result
            if result.failed:
                emit(telemetry, "method_fail", method=name,
                     error=result.error, attempt=1)
            else:
                emit(telemetry, "method_end", method=name,
                     fit_seconds=result.fit_seconds, attempt=1)

    if artifacts is not None:
        from ..persistence import save_method_result
        for name, result in fitted.items():
            if not result.failed:
                save_method_result(result, artifacts / f"{name}.npz")

    for name in names:                           # preserve roster order
        outcome.methods[name] = completed.get(name) or fitted[name]
    return outcome
