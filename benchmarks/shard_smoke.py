#!/usr/bin/env python3
"""Block-sparse sharded execution gate for run_benchmarks.sh.

Two sections at smoke scale (see docs/SHARDING.md), results recorded in
``BENCH_SHARD.json`` at the repo root:

1. **Parity** — at a dense-feasible city size, a short AF training run
   under sharded execution (``mode="exact"``) must be *bit-identical*
   to the dense path: same per-epoch train/val losses, same final
   weights, same dropout RNG states.  Any divergence means the sharded
   stage-1 no longer computes what the paper's model computes.
2. **Metro** — a 500-region city must actually work at metro scale:

   * block-sparse trip aggregation is bit-identical to the dense
     builder (``build_block_sparse_od_tensors`` vs ``build_od_tensors``),
   * a blocked-mode forward is bit-identical to the dense forward,
   * a smoke training epoch through the sharded path completes with
     every shard under ``BUDGET_BYTES`` of incremental working set
     (tracemalloc-enforced), and the dense epoch takes no more
     wall-clock than it: both fold the empty slices, and the dense path
     runs them without the per-shard runs and measurements,
   * a forecast is served through the sharded model.

Exits non-zero on any failure so the benchmark sweep fails loudly.

Usage: python3 benchmarks/shard_smoke.py
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (AdvancedFramework, ShardedExecution, TrainConfig,
                        Trainer, af_loss)
from repro.core.trainer import _module_rngs
from repro.graph import chebyshev_hops, plan_shards
from repro.histograms import (BlockSparseWindowDataset, WindowDataset,
                              build_block_sparse_od_tensors,
                              build_od_tensors, chronological_split)
from repro.trips import metro_dataset

S, H = 2, 1
PARITY_REGIONS = 96
PARITY_INTERVALS = 12
PARITY_SHARDS = 6
METRO_REGIONS = 500
METRO_INTERVALS = 10
METRO_SHARDS = 16
BUDGET_BYTES = 64 * 1024 * 1024     # per-shard incremental working set
TRAIN_BATCHES = 3
REPORT = Path(__file__).parent.parent / "BENCH_SHARD.json"


def _model(weights: np.ndarray, n_buckets: int,
           seed: int = 0) -> AdvancedFramework:
    rng = np.random.default_rng(seed)
    return AdvancedFramework(weights, weights, n_buckets, rng,
                             rank=4, rnn_hidden=8, rnn_order=2)


def _loss(weights: np.ndarray):
    def loss(pred, truth, mask, r, c):
        return af_loss(pred, truth, mask, r, c, weights, weights)
    return loss


def _config(**overrides) -> TrainConfig:
    base = dict(epochs=2, batch_size=2, learning_rate=1e-3,
                max_train_batches=TRAIN_BATCHES, max_val_batches=2,
                patience=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _fit(model, weights, split, windows, config, sharding=None):
    trainer = Trainer(model, _loss(weights), config, sharding=sharding)
    start = time.perf_counter()
    result = trainer.fit(windows, split, horizon=H)
    return trainer, result, time.perf_counter() - start


def _states_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and \
        all(np.array_equal(a[name], b[name]) for name in a)


def check_parity():
    """Dense vs sharded-exact short fits: bit-identical end to end."""
    dataset = metro_dataset(n_regions=PARITY_REGIONS,
                            n_intervals=PARITY_INTERVALS,
                            trips_per_interval=800.0, seed=7)
    sequence = build_od_tensors(dataset.trips, dataset.city,
                                n_intervals=PARITY_INTERVALS)
    windows = WindowDataset(sequence, s=S, h=H)
    split = chronological_split(windows, 0.6, 0.2)
    weights = dataset.city.proximity()

    dense_model = _model(weights, sequence.n_buckets)
    _, dense_result, _ = _fit(dense_model, weights, split, windows,
                              _config())

    plan = plan_shards(weights, n_shards=PARITY_SHARDS,
                       hops=chebyshev_hops([3, 3]))
    execution = ShardedExecution(plan, mode="exact")
    sharded_model = _model(weights, sequence.n_buckets)
    _, sharded_result, _ = _fit(sharded_model, weights, split, windows,
                                _config(), sharding=execution)

    losses_equal = (dense_result.train_losses
                    == sharded_result.train_losses
                    and dense_result.val_losses
                    == sharded_result.val_losses)
    weights_equal = _states_equal(dense_model.state_dict(),
                                  sharded_model.state_dict())
    rng_equal = all(
        a.bit_generator.state == b.bit_generator.state
        for a, b in zip(_module_rngs(dense_model),
                        _module_rngs(sharded_model)))

    failures = []
    if not losses_equal:
        failures.append(
            f"exact-mode loss curves diverged from dense "
            f"(train {dense_result.train_losses} vs "
            f"{sharded_result.train_losses})")
    if not weights_equal:
        failures.append("exact-mode final weights differ from dense")
    if not rng_equal:
        failures.append("exact-mode dropout RNG states differ from dense")
    section = {
        "n_regions": PARITY_REGIONS, "n_shards": PARITY_SHARDS,
        "epochs": len(dense_result.val_losses),
        "losses_bit_identical": losses_equal,
        "weights_bit_identical": weights_equal,
        "rng_bit_identical": rng_equal,
        "train_losses": dense_result.train_losses,
        "units": plan.n_origin_shards + plan.n_dest_shards,
    }
    return section, failures


def check_metro():
    """500 regions: storage + forward parity, budgeted epoch, serving."""
    failures = []
    build_start = time.perf_counter()
    dataset = metro_dataset(n_regions=METRO_REGIONS,
                            n_intervals=METRO_INTERVALS)
    weights = dataset.city.proximity()
    plan = plan_shards(weights, n_shards=METRO_SHARDS,
                       hops=chebyshev_hops([3, 3]))
    sparse = build_block_sparse_od_tensors(
        dataset.trips, dataset.city, plan.row_blocks(), plan.col_blocks(),
        n_intervals=METRO_INTERVALS)
    dense_seq = build_od_tensors(dataset.trips, dataset.city,
                                 n_intervals=METRO_INTERVALS)
    build_seconds = time.perf_counter() - build_start
    round_trip = sparse.to_dense()
    storage_exact = (np.array_equal(round_trip.tensors, dense_seq.tensors)
                     and np.array_equal(round_trip.mask, dense_seq.mask)
                     and np.array_equal(round_trip.counts,
                                        dense_seq.counts))
    if not storage_exact:
        failures.append("block-sparse aggregation is not bit-identical "
                        "to build_od_tensors")

    dense_windows = WindowDataset(dense_seq, s=S, h=H)
    sparse_windows = BlockSparseWindowDataset(sparse, s=S, h=H)
    split = chronological_split(dense_windows)

    # Forward (inference) parity and wall-clock: blocked vs dense.
    model = _model(weights, dense_seq.n_buckets)
    model.eval()
    histories = sparse_windows.history(0)[None]       # (1, S, N, N', K)
    start = time.perf_counter()
    dense_pred, _, _ = model(histories, H)
    dense_forward_seconds = time.perf_counter() - start
    execution = ShardedExecution(plan, mode="blocked",
                                 memory_budget_bytes=BUDGET_BYTES)
    model.set_sharding(execution)
    sharded_pred, _, _ = model(histories, H)          # profiled forward
    start = time.perf_counter()
    sharded_pred, _, _ = model(histories, H)
    sharded_forward_seconds = time.perf_counter() - start
    forward_exact = np.array_equal(sharded_pred.numpy(),
                                   dense_pred.numpy())
    if not forward_exact:
        failures.append(
            f"blocked forward diverged from dense (max abs diff "
            f"{np.abs(sharded_pred.numpy() - dense_pred.numpy()).max():.3e})")

    # Smoke epoch: dense vs sharded wall-clock, per-shard budget held.
    epoch_config = dict(epochs=1, batch_size=1, max_val_batches=1,
                        patience=1)
    dense_trainer, _, dense_fit_seconds = _fit(
        _model(weights, dense_seq.n_buckets), weights, split,
        dense_windows, _config(**epoch_config))
    train_exec = ShardedExecution(plan, mode="blocked",
                                  memory_budget_bytes=BUDGET_BYTES)
    sharded_trainer, sharded_result, sharded_fit_seconds = _fit(
        _model(weights, dense_seq.n_buckets), weights, split,
        sparse_windows, _config(**epoch_config), sharding=train_exec)
    peak = train_exec.max_shard_peak_bytes
    if not np.isfinite(sharded_result.train_losses[-1]):
        failures.append("sharded smoke epoch diverged")
    if dense_fit_seconds > sharded_fit_seconds:
        failures.append(
            f"dense epoch slower than sharded ({dense_fit_seconds:.1f}s "
            f"vs {sharded_fit_seconds:.1f}s)")
    if peak <= 0 or peak > BUDGET_BYTES:
        failures.append(
            f"per-shard peak {peak} bytes outside (0, {BUDGET_BYTES}]")

    # Serve one forecast through the fitted sharded model.
    start = time.perf_counter()
    forecast = sharded_trainer.predict(
        sparse_windows, [len(sparse_windows) - 1], H)
    serve_seconds = time.perf_counter() - start
    if not np.isfinite(forecast).all():
        failures.append("served forecast contains non-finite values")

    section = {
        "n_regions": METRO_REGIONS, "n_intervals": METRO_INTERVALS,
        "n_trips": len(dataset.trips),
        "build_seconds": build_seconds,
        "storage": dict(sparse.occupancy(), bit_identical=storage_exact),
        "plan": plan.describe(),
        "forward": {
            "bit_identical": forward_exact,
            "dense_seconds": dense_forward_seconds,
            "sharded_seconds": sharded_forward_seconds,
            "speedup": dense_forward_seconds / sharded_forward_seconds,
        },
        "epoch": {
            "train_batches": TRAIN_BATCHES,
            "dense_seconds": dense_fit_seconds,
            "sharded_seconds": sharded_fit_seconds,
            "speedup": dense_fit_seconds / sharded_fit_seconds,
            "budget_bytes": BUDGET_BYTES,
            "max_shard_peak_bytes": peak,
            "occupancy": train_exec.last_occupancy,
        },
        "serve_seconds": serve_seconds,
    }
    return section, failures


def main() -> int:
    failures = []
    parity, parity_failures = check_parity()
    failures += parity_failures
    metro, metro_failures = check_metro()
    failures += metro_failures

    report = {"scale": "smoke", "s": S, "h": H, "parity": parity,
              "metro": metro}
    REPORT.write_text(json.dumps(report, indent=2, sort_keys=False)
                      + "\n")
    if failures:
        print(f"shard smoke: FAIL ({'; '.join(failures)})")
        return 1
    print(f"shard smoke: OK (exact mode bit-identical over "
          f"{parity['epochs']} epochs at {PARITY_REGIONS} regions; "
          f"{METRO_REGIONS}-region epoch dense "
          f"{metro['epoch']['dense_seconds']:.2f}s, sharded "
          f"{metro['epoch']['sharded_seconds']:.2f}s; max shard peak "
          f"{metro['epoch']['max_shard_peak_bytes'] / 2**20:.1f} MiB "
          f"of {BUDGET_BYTES / 2**20:.0f} MiB budget -> {REPORT.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
