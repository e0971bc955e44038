#!/usr/bin/env python3
"""Chaos gate for run_benchmarks.sh: every injected fault must be
repaired, quarantined, or cleanly reported.

Drives :mod:`repro.faultinject` against the robustness stack and exits
non-zero if any fault class slips through:

1.  histogram drift         -> repaired (renormalized + telemetry)
2.  dropped OD cells        -> quarantined (mask cleared + telemetry)
3.  NaN in tensors          -> hard ContractViolation, never repaired
4.  NaN gradients           -> skip policy trains on; abort policy
                               raises NonFiniteGradError
5.  truncated checkpoint    -> CheckpointCorruptError; Trainer resume
                               falls back to best.npz with a warning
6.  bit-flipped checkpoint  -> same (SHA-256 integrity check)
7.  killed roster worker    -> run_comparison retries and succeeds
8.  detect_anomaly names the creating (fused) op
9.  contract checks cost < 5% of a Trainer.fit (median over
    interleaved off/repair pairs)

Usage: PYTHONPATH=src python3 benchmarks/chaos_smoke.py
"""

import gc
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import faultinject
from repro.autodiff import AnomalyError, Tensor, detect_anomaly
from repro.autodiff.rnn import GRUCell
from repro.contracts import (ContractPolicy, ContractViolation,
                             contract_policy, validate_sequence)
from repro.core import (BasicFramework, NonFiniteGradError, TrainConfig,
                        Trainer, bf_loss)
from repro.core.trainer import BEST_NAME, CHECKPOINT_NAME
from repro.experiments import prepare, run_comparison
from repro.histograms import (WindowDataset, build_od_tensors,
                              chronological_split)
from repro.persistence import CheckpointCorruptError, load_checkpoint
from repro.trips import toy_dataset

CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


class Recorder:
    """Minimal telemetry sink collecting events by type."""

    def __init__(self):
        self.events = []

    def __call__(self, event, fields):
        self.events.append((event, fields))

    def of(self, event):
        return [f for e, f in self.events if e == event]


def _sequence(seed=42):
    dataset = toy_dataset(n_days=3, n_regions=12, seed=seed)
    return build_od_tensors(dataset.trips, dataset.city,
                            n_intervals=dataset.field.n_intervals)


def _trainer(epochs=1, **overrides):
    model = BasicFramework(12, 12, 7, np.random.default_rng(7), rank=3,
                           encoder_dim=8, hidden_dim=12, dropout=0.2)
    loss = lambda p, t, m, r, c: bf_loss(p, t, m, r, c, 1e-4, 1e-4)
    cfg = dict(epochs=epochs, batch_size=8, max_train_batches=6,
               patience=10, seed=3)
    cfg.update(overrides)
    return Trainer(model, loss, TrainConfig(**cfg))


def _windows(sequence):
    windows = WindowDataset(sequence, s=3, h=2)
    return windows, chronological_split(windows)


# ----------------------------------------------------------------------
@check("histogram drift repaired")
def check_drift():
    sequence = _sequence()
    n = faultinject.drift_histograms(sequence.tensors, sequence.mask,
                                     seed=1, fraction=0.2)
    assert n > 0, "injector drifted nothing"
    sink = Recorder()
    policy = ContractPolicy(mode="repair", telemetry=sink)
    validate_sequence(sequence, "chaos", policy)
    repairs = sink.of("contract_repair")
    assert repairs and repairs[0]["n_cells"] == n, \
        f"expected a contract_repair event for {n} cells, got {repairs}"
    sums = sequence.tensors[sequence.mask].sum(axis=-1)
    assert np.allclose(sums, 1.0), "repair left unnormalized histograms"


@check("dropped cells quarantined")
def check_drop():
    sequence = _sequence()
    n = faultinject.drop_cells(sequence.tensors, sequence.mask,
                               seed=2, fraction=0.1)
    assert n > 0, "injector dropped nothing"
    sink = Recorder()
    policy = ContractPolicy(mode="repair", telemetry=sink)
    validate_sequence(sequence, "chaos", policy)
    quarantined = sink.of("contract_quarantine")
    assert quarantined and quarantined[0]["n_cells"] == n, \
        f"expected quarantine of {n} cells, got {quarantined}"
    sums = sequence.tensors[sequence.mask].sum(axis=-1)
    assert np.allclose(sums, 1.0), "quarantine left bad observed cells"


@check("NaN data hard-errors")
def check_nan_data():
    sequence = _sequence()
    faultinject.poison_nan(sequence.tensors, seed=3, n_cells=4)
    try:
        validate_sequence(sequence, "chaos", ContractPolicy(mode="repair"))
    except ContractViolation as exc:
        assert exc.kind == "non_finite", exc.kind
    else:
        raise AssertionError("NaN tensors were accepted")


@check("NaN gradient: skip policy trains on")
def check_nan_grad_skip():
    sequence = _sequence()
    windows, split = _windows(sequence)
    trainer = _trainer(on_nonfinite_grad="skip")
    injector = faultinject.NaNGradInjector(at=[(0, 1)], seed=4)
    sink = Recorder()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = trainer.fit(windows, split, horizon=2, telemetry=sink,
                             after_backward=injector)
    assert injector.injected == [(0, 1)], "injector never fired"
    events = sink.of("nonfinite_grad")
    assert events and events[0]["action"] == "skip", events
    assert all(np.isfinite(loss) for loss in result.train_losses), \
        "NaN leaked into the loss curve despite skip policy"
    state = trainer.model.state_dict()
    assert all(np.isfinite(v).all() for v in state.values()), \
        "NaN leaked into the weights despite skip policy"


@check("NaN gradient: abort policy raises")
def check_nan_grad_abort():
    sequence = _sequence()
    windows, split = _windows(sequence)
    trainer = _trainer(on_nonfinite_grad="abort")
    injector = faultinject.NaNGradInjector(at=[(0, 0)], seed=5)
    try:
        trainer.fit(windows, split, horizon=2, after_backward=injector)
    except NonFiniteGradError as exc:
        assert exc.epoch == 0 and exc.batch == 0, (exc.epoch, exc.batch)
    else:
        raise AssertionError("abort policy did not raise")


def _corrupt_checkpoint_roundtrip(mode):
    sequence = _sequence()
    windows, split = _windows(sequence)
    with tempfile.TemporaryDirectory() as tmp:
        trainer = _trainer(epochs=1)
        trainer.fit(windows, split, horizon=2, checkpoint_dir=tmp)
        rolling = Path(tmp) / CHECKPOINT_NAME
        faultinject.corrupt_file(rolling, seed=6, mode=mode)
        try:
            load_checkpoint(rolling)
        except CheckpointCorruptError:
            pass
        else:
            raise AssertionError(
                f"{mode} checkpoint loaded without complaint")
        # The trainer must fall back to best.npz instead of crashing.
        resumed = _trainer(epochs=1)
        assert (Path(tmp) / BEST_NAME).exists()
        sink = Recorder()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed.fit(windows, split, horizon=2, checkpoint_dir=tmp,
                        resume=True, telemetry=sink)
        fallbacks = sink.of("checkpoint_fallback")
        assert fallbacks and "best" in fallbacks[0]["fallback"], fallbacks


@check("truncated checkpoint: clean error + best.npz fallback")
def check_truncated_checkpoint():
    _corrupt_checkpoint_roundtrip("truncate")


@check("bit-flipped checkpoint: clean error + best.npz fallback")
def check_bitflipped_checkpoint():
    _corrupt_checkpoint_roundtrip("bitflip")


@check("killed roster worker retried to success")
def check_worker_kill():
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        print("    (skipped: no fork start method)")
        return
    dataset = toy_dataset(n_days=2, n_regions=8, seed=0)
    data = prepare(dataset, s=3, h=1)
    from repro.baselines import NaiveHistogram
    with tempfile.TemporaryDirectory() as tmp:
        marker = Path(tmp) / "killed.marker"
        roster = {"nh": faultinject.kill_once(
            lambda d: NaiveHistogram(), marker)}
        sink = Recorder()
        result = run_comparison(data, roster, n_jobs=2, retries=1,
                                max_test_windows=8, telemetry=sink)
        assert marker.exists(), "worker was never killed"
        fails = sink.of("method_fail")
        assert fails and fails[0].get("will_retry"), \
            f"no retried failure recorded: {sink.events}"
        assert not result.methods["nh"].failed, \
            f"method did not recover: {result.methods['nh'].error}"


@check("detect_anomaly names the op")
def check_anomaly_naming():
    cell = GRUCell(4, 3, np.random.default_rng(0))
    cell.w_reset.data[0, 0] = np.nan
    x = Tensor(np.ones((2, 4)))
    h = cell.initial_state(2)
    with detect_anomaly():
        try:
            cell(x, h)
        except AnomalyError as exc:
            assert exc.op and exc.op != "?", "anomaly lost the op name"
            assert exc.phase == "forward", exc.phase
        else:
            raise AssertionError("NaN forward undetected")


# The overhead gate times whole fits of this many epochs (~0.1 s each)
# in interleaved off/repair pairs and takes the median of the pairs'
# time ratios.  Fit times on a shared machine wander by ±20% from one
# fit to the next; a pair runs back to back, so its ratio cancels the
# slow part of that, and the median drops the pairs a burst of other
# load split.
OVERHEAD_EPOCHS = 4
OVERHEAD_PAIRS = 21


@check("contract overhead < 5% of a Trainer.fit")
def check_overhead():
    sequence = _sequence()
    windows, split = _windows(sequence)

    def fit_seconds(mode):
        gc.collect()
        with contract_policy(mode):
            trainer = _trainer(epochs=OVERHEAD_EPOCHS)
            start = time.perf_counter()
            trainer.fit(windows, split, horizon=2)
            return time.perf_counter() - start

    fit_seconds("off")                        # warm caches
    times = {"off": [], "repair": []}
    for pair in range(OVERHEAD_PAIRS):
        # Alternate which policy runs first, so neither always runs
        # second.
        order = ("off", "repair") if pair % 2 == 0 else ("repair", "off")
        for mode in order:
            times[mode].append(fit_seconds(mode))
    off = np.array(times["off"])
    overhead = float(np.median(np.array(times["repair"]) / off)) - 1.0
    print(f"    (median fit {np.median(off) * 1e3:.0f} ms off, median "
          f"pair overhead {overhead:+.1%})")
    assert overhead < 0.05, \
        f"contract checks cost {overhead:.1%} of a fit (budget 5%)"


def main() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"chaos {name}: FAIL ({type(exc).__name__}: {exc})")
        else:
            print(f"chaos {name}: OK")
    if failures:
        print(f"chaos smoke: FAIL ({failures}/{len(CHECKS)} checks)")
        return 1
    print(f"chaos smoke: OK ({len(CHECKS)} fault classes handled)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
