"""Microbenchmark: the two execution engines on the AF and BF steps.

Compares eager execution against tape replay (see docs/EXECUTION.md) on
one AF and one BF training step (forward, loss, backward, Adam update) —
wall time, allocation high-water mark and live arena size — plus a
3-epoch end-to-end smoke fit per engine and a per-op-kind time profile
(via :func:`repro.autodiff.profile`) of the AF step under each engine.
Results are written as JSON (default: ``BENCH_AUTODIFF.json`` at the
repo root) so the perf trajectory of the autodiff substrate has
recorded data.

Usage::

    PYTHONPATH=src python benchmarks/microbench.py            # full sizes
    PYTHONPATH=src python benchmarks/microbench.py --scale smoke
    PYTHONPATH=src python benchmarks/microbench.py --out /tmp/bench.json

``run_benchmarks.sh`` invokes this before the pytest benchmark sweep.
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.autodiff import ReplayEngine, profile, set_default_dtype
from repro.autodiff.optim import Adam
from repro.core import (AdvancedFramework, BasicFramework, af_loss, bf_loss)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Problem sizes per scale.  "smoke" mirrors the 12-region toy cities of
#: the benchmark harness; "full" is a 32-region city.
SIZES = {
    "smoke": dict(regions=12, batch=4, s=6, horizon=3, buckets=8,
                  repeats=10),
    "full": dict(regions=32, batch=8, s=6, horizon=3, buckets=8,
                 repeats=3),
}


# ----------------------------------------------------------------------
# training-step parts
# ----------------------------------------------------------------------
def _random_proximity(n: int, rng) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _train_step_batch(sizes, rng):
    n, k = sizes["regions"], sizes["buckets"]
    b, s, h = sizes["batch"], sizes["s"], sizes["horizon"]
    history = rng.uniform(size=(b, s, n, n, k))
    truth = rng.uniform(size=(b, h, n, n, k))
    mask = (rng.uniform(size=(b, h, n, n)) < 0.4).astype(float)
    return history, truth, mask


def _af_parts(sizes, seed: int = 0):
    """(model, loss_fn, batch, horizon) for one AF training step."""
    rng = np.random.default_rng(seed)
    n = sizes["regions"]
    w = _random_proximity(n, rng)
    model = AdvancedFramework(w, w, sizes["buckets"],
                              np.random.default_rng(seed), rank=4,
                              rnn_hidden=8, rnn_order=2)

    def loss_fn(prediction, truth, mask, r, c):
        return af_loss(prediction, truth, mask, r, c, w, w)

    return model, loss_fn, _train_step_batch(sizes, rng), sizes["horizon"]


def _bf_parts(sizes, seed: int = 0):
    """(model, loss_fn, batch, horizon) for one BF training step."""
    rng = np.random.default_rng(seed)
    n = sizes["regions"]
    model = BasicFramework(n, n, sizes["buckets"],
                           np.random.default_rng(seed), rank=4,
                           encoder_dim=16, hidden_dim=32)
    return model, bf_loss, _train_step_batch(sizes, rng), sizes["horizon"]


def _eager_step(parts):
    """An eager train step closure (forward, loss, backward, Adam)."""
    model, loss_fn, (history, truth, mask), horizon = parts
    optimizer = Adam(model.parameters())

    def step():
        prediction, r, c = model(history, horizon)
        loss = loss_fn(prediction, truth, mask, r, c)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()

    return step


def _replay_step(parts):
    """A replay-engine train step closure; also returns the engine."""
    model, loss_fn, (history, truth, mask), horizon = parts
    optimizer = Adam(model.parameters(), flat=True)
    engine = ReplayEngine(model, loss_fn)

    def step():
        loss = engine.forward(history, truth, mask, horizon)
        optimizer.zero_grad()
        engine.backward(loss)
        optimizer.step()

    return step, engine


# ----------------------------------------------------------------------
# execution-engine benches: eager vs tape replay (docs/EXECUTION.md)
# ----------------------------------------------------------------------
def _alloc_peak_bytes(step, rounds: int = 3) -> int:
    """Allocation high-water mark (bytes) of a step above steady state.

    tracemalloc sees numpy array buffers (numpy registers them with the
    tracemalloc C API), so this captures the per-step Tensor/grad churn
    the replay arena is meant to bound.  One traced step runs first so
    persistent state (the replay arena, optimizer slots) is already in
    the baseline; the reported peak is relative to that baseline.  Run
    separately from the wall-clock timing — tracing slows every
    allocation down.
    """
    step()                                          # steady state first
    tracemalloc.start()
    try:
        step()                  # persistent buffers enter the baseline
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(rounds):
            step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return max(peak - baseline, 0)


def bench_engine_step(make_parts, sizes) -> dict:
    """Eager vs replay on the same training step, same seed.

    Wall time is interleaved best-of-``repeats`` (eager, replay,
    eager, ...), so slow periods of a noisy host hit both engines
    equally; the allocation high-water mark is
    measured in a separate traced pass, and the replay side also
    reports its live buffer arena (``ReplayEngine.arena_nbytes``).
    """
    repeats = sizes["repeats"]
    step_eager = _eager_step(make_parts(sizes))
    step_replay, engine = _replay_step(make_parts(sizes))
    step_eager()                                    # warmup
    step_replay()                                   # warmup = capture
    step_replay()                                   # first true replay
    eager_s = replay_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step_eager()
        eager_s = min(eager_s, time.perf_counter() - start)
        start = time.perf_counter()
        step_replay()
        replay_s = min(replay_s, time.perf_counter() - start)
    eager_peak = _alloc_peak_bytes(_eager_step(make_parts(sizes)))
    replay_fresh, engine_fresh = _replay_step(make_parts(sizes))
    replay_fresh()                                  # capture outside trace
    replay_peak = _alloc_peak_bytes(replay_fresh)
    return {
        "eager_ms": round(eager_s * 1e3, 2),
        "replay_ms": round(replay_s * 1e3, 2),
        "speedup": round(eager_s / replay_s, 2),
        "eager_alloc_peak_bytes": int(eager_peak),
        "replay_alloc_peak_bytes": int(replay_peak),
        "replay_arena_bytes": int(engine_fresh.arena_nbytes()),
        "engine_stats": engine.stats(),
    }


def bench_smoke_epochs(epochs: int = 3) -> dict:
    """End-to-end ``Trainer.fit`` wall time per engine, 3-epoch smoke.

    Same toy city and model seed for every engine, so besides timing it
    re-checks that replay reproduces the eager loss curve exactly.
    """
    from repro.core import TrainConfig, Trainer
    from repro.histograms import (WindowDataset, build_od_tensors,
                                  chronological_split)
    from repro.trips import toy_dataset

    dataset = toy_dataset(n_days=3, n_regions=12, seed=42)
    sequence = build_od_tensors(dataset.trips, dataset.city,
                                n_intervals=dataset.field.n_intervals)
    windows = WindowDataset(sequence, s=3, h=2)
    split = chronological_split(windows)
    report = {}
    curves = {}
    for engine in ("eager", "replay"):
        model = BasicFramework(12, 12, 7, np.random.default_rng(7),
                               rank=3, encoder_dim=8, hidden_dim=12,
                               dropout=0.2)
        config = TrainConfig(epochs=epochs, batch_size=8, patience=10,
                             seed=3, engine=engine)
        trainer = Trainer(model, bf_loss, config)
        start = time.perf_counter()
        result = trainer.fit(windows, split, horizon=2)
        report[f"{engine}_s"] = round(time.perf_counter() - start, 3)
        curves[engine] = result.train_losses
    report["epochs"] = epochs
    report["speedup"] = round(report["eager_s"] / report["replay_s"], 2)
    report["curves_identical"] = curves["eager"] == curves["replay"]
    return report


def profile_engine_step(make_parts, sizes, top: int = 8) -> dict:
    """Top per-op-kind costs of one step under each engine."""
    report = {}
    for engine_name in ("eager", "replay"):
        if engine_name == "eager":
            step = _eager_step(make_parts(sizes))
        else:
            step, _ = _replay_step(make_parts(sizes))
        step()                                      # warmup / capture
        step()                                      # first replay
        with profile() as profiler:
            step()
        report[engine_name] = {
            label: {key: (round(value, 6) if isinstance(value, float)
                          else value)
                    for key, value in entry.items()}
            for label, entry in
            list(profiler.as_dict().items())[:top]}
    return report


# ----------------------------------------------------------------------
def run_microbench(scale: str = "full", dtype: str = "float32") -> dict:
    """Run every bench; returns the report dict (also used by tests)."""
    if scale not in SIZES:
        raise ValueError(f"scale must be one of {sorted(SIZES)}, "
                         f"got {scale!r}")
    sizes = SIZES[scale]
    set_default_dtype(np.dtype(dtype).type)
    try:
        engine_step = {
            "af": bench_engine_step(_af_parts, sizes),
            "bf": bench_engine_step(_bf_parts, sizes),
        }
        smoke_epochs = bench_smoke_epochs()
        op_profile = profile_engine_step(_af_parts, sizes)
    finally:
        set_default_dtype(np.float64)
    return {
        "generated_by": "benchmarks/microbench.py",
        "scale": scale,
        "dtype": dtype,
        "timing": "best-of-%d wall clock, one training step"
                  % sizes["repeats"],
        "engine_step": engine_step,
        "smoke_epochs": smoke_epochs,
        "af_step_op_profile": op_profile,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="full", choices=sorted(SIZES))
    parser.add_argument("--dtype", default="float32",
                        choices=("float32", "float64"))
    parser.add_argument("--out", default=str(REPO_ROOT /
                                             "BENCH_AUTODIFF.json"))
    args = parser.parse_args(argv)
    report = run_microbench(scale=args.scale, dtype=args.dtype)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for name, row in report["engine_step"].items():
        print(f"  {name + ' engine':24s} replay {row['replay_ms']:8.3f} ms  "
              f"eager {row['eager_ms']:9.3f} ms   {row['speedup']:.2f}x  "
              f"(alloc peak {row['replay_alloc_peak_bytes'] / 1e6:.1f} vs "
              f"{row['eager_alloc_peak_bytes'] / 1e6:.1f} MB, arena "
              f"{row['replay_arena_bytes'] / 1e6:.1f} MB)")
    smoke = report["smoke_epochs"]
    print(f"  {'3-epoch smoke fit':24s} replay {smoke['replay_s']:8.3f} s   "
          f"eager {smoke['eager_s']:9.3f} s   {smoke['speedup']:.2f}x  "
          f"(curves identical: {smoke['curves_identical']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
