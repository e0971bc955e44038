#!/usr/bin/env python3
"""End-to-end, stage-attributed benchmark of the OD forecasting system.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload pipeline-paper --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records spans and the op profile and reports the
per-layer metrics together with the trace's own overhead.  Every run
checks the program's outputs.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the workloads and how to read the
per-layer table.
"""

import os

# One BLAS thread per process, set before numpy loads: a second thread
# gives no reliable gain on the AF step, widens the spread, and would
# oversubscribe two cores once two pool workers run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".e2ebench"

END_TO_END = {
    "setup_s": "s",
    "train_windows_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "test_kl": "nats",
    "test_js": "nats",
    "test_emd": "bucket",
    "serve_p50_ms": "ms",
    "serve_tail_ms": "ms",
    "serve_goodput_per_s": "1/s",
}

PER_LAYER = {
    "histograms.build_s": "s",
    "graph.proximity_s": "s",
    "graph.plan_shards_s": "s",
    "persistence.save_checkpoint_s": "s",
    "persistence.load_checkpoint_s": "s",
    "serve.registry.load_s": "s",
    "histograms.batches_s": "s",
    "core.factorize.fwd_s": "s",
    "core.factorize.bwd_s": "s",
    "core.factorize.calls": "count",
    "core.forecast.fwd_s": "s",
    "core.forecast.bwd_s": "s",
    "core.recover.fwd_s": "s",
    "core.recover.bwd_s": "s",
    "core.loss.fwd_s": "s",
    "core.loss.bwd_s": "s",
    "autodiff.glue.fwd_s": "s",
    "autodiff.glue.bwd_s": "s",
    "autodiff.optim.step_s": "s",
    "autodiff.profiled_s": "s",
    "autodiff.unmapped_ops": "count",
    "contracts.check_s": "s",
    "core.shardexec.occupancy": "share",
    "core.shardexec.max_shard_peak_mib": "MiB",
    "serve.engine.captures": "count",
    "serve.engine.replays": "count",
    "serve.cache.hit_share": "share",
    "serve.cache.hit_ms": "ms",
    "serve.cache.miss_ms": "ms",
    "serve_shm.ring.write_ms": "ms",
    "serve_shm.ring.read_ms": "ms",
    "serve_shm.ring.fallback_share": "share",
    "serve.pool.forward_ewma_ms": "ms",
    "serve.pool.worker_share_max": "share",
    "serve.pool.deaths": "count",
    "serve.pool.timeouts": "count",
    "serve.pool.degraded": "count",
    "serve_shm.admission.shed_share": "share",
    "serve_shm.admission.shed_ms": "ms",
    "serve_shm.admission.queue_high_water": "count",
    "serve.generator.late_p50_ms": "ms",
    "serve.generator.late_max_ms": "ms",
    "trace.overhead_share": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(run, tracer) -> dict:
    """The per-layer table of a traced run (parent plus pool workers)."""
    import spans
    from workloads import engine_counts

    out = dict.fromkeys(PER_LAYER, 0.0)
    dumps = spans.read_workers(run.workdir)
    processes = [tracer.summary()] + [d["trace"] for d in dumps]

    def calls(name):
        return [x for p in processes for x in p["durations"].get(name, [])]

    def notes(name):
        return [x for p in processes for x in p["notes"].get(name, [])]

    reps = tracer.per_parent("setup.rep")
    for layer in ("histograms.build", "graph.proximity",
                  "graph.plan_shards"):
        out[f"{layer}_s"] = _median([rep.get(layer, 0.0) for rep in reps])
    out["persistence.save_checkpoint_s"] = \
        _median(calls("persistence.save_checkpoint"))
    out["persistence.load_checkpoint_s"] = \
        _median(calls("persistence.load_checkpoint"))
    out["serve.registry.load_s"] = _median(notes("serve.registry.load"))
    out["contracts.check_s"] = sum(calls("contracts.check"))

    fit = tracer.durations(within="fit", excluding="fit.validate")
    out["histograms.batches_s"] = sum(fit.get("histograms.batches", []))
    out["autodiff.optim.step_s"] = sum(fit.get("autodiff.optim.step", []))
    if run.stage is not None:
        for bucket, entry in run.stage["buckets"].items():
            out[f"{bucket}.fwd_s"] = entry["fwd_s"]
            out[f"{bucket}.bwd_s"] = entry["bwd_s"]
        out["core.factorize.calls"] = \
            run.stage["buckets"]["core.factorize"]["calls"]
        out["autodiff.profiled_s"] = run.stage["total_s"]
        out["autodiff.unmapped_ops"] = len(run.stage["unmapped"])
        bucket_sum = sum(e["fwd_s"] + e["bwd_s"]
                         for e in run.stage["buckets"].values())
        run.check(abs(bucket_sum - run.detail["profiled_total_s"])
                  <= 1e-9 * max(1.0, bucket_sum),
                  "stage buckets do not sum to the profiler total")

    parent = processes[0]["durations"]
    out["serve_shm.ring.write_ms"] = \
        1e3 * _median(parent.get("serve_shm.ring.write", []))
    out["serve_shm.ring.read_ms"] = \
        1e3 * _median(parent.get("serve_shm.ring.read", []))
    per_ring = [len(v) for k, v in tracer.notes.items()
                if k.startswith("serve_shm.ring.write.ring:")]
    if per_ring:
        out["serve.pool.worker_share_max"] = max(per_ring) / sum(per_ring)
    if dumps:
        engine_counts(run, [d["stats"] for d in dumps])
    out.update({k: v for k, v in run.layer.items() if k in out})
    return out


def stop_processes() -> None:
    """End every process this run started and wait for each: any pool or
    shard worker still alive, then the multiprocessing resource tracker
    that shared memory starts, which would otherwise outlive the run."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()


def stage_table(stage: dict) -> str:
    total = stage["total_s"] or 1.0
    lines = [f"{'stage':<18} {'fwd s':>9} {'bwd s':>9} {'calls':>7} "
             f"{'share':>6}"]
    for bucket, entry in stage["buckets"].items():
        share = (entry["fwd_s"] + entry["bwd_s"]) / total
        lines.append(f"{bucket:<18} {entry['fwd_s']:>9.3f} "
                     f"{entry['bwd_s']:>9.3f} {entry['calls']:>7d} "
                     f"{share:>6.1%}")
    if stage["unmapped"]:
        lines.append(f"unmapped op labels (counted as glue): "
                     f"{', '.join(stage['unmapped'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: program source not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import measure
    import spans
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("e2ebench: --seconds must be >= 1", file=sys.stderr)
        return 2

    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)     # keep every file in the checkout
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        spans.instrument(tracer)
    run = Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
              tracer=tracer, workdir=workdir)
    try:
        WORKLOADS[args.workload](run)
        layers = layer_metrics(run, tracer) if args.trace else None
    finally:
        stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = dict(run.e2e)
    e2e["setup_s"] = statistics.median(run.setup_reps) + run.setup_once
    rss = measure.peak_rss_mib()
    e2e["peak_rss_mib"] = rss["total"]
    run.detail["peak_rss_mib"] = rss
    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    values = {name: float(metrics.get(name, math.nan)) for name in units}
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    run.check(not bad, f"metrics not measured or not finite: {bad}")

    print(f"e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host: {json.dumps(measure.host_fingerprint())}")
    for name, digest in run.inputs.items():
        print(f"input: {name} trips sha256 {digest}")
    for phase in run.phases.values():
        print(f"phase {phase.name:<7} sent={phase.sent} "
              f"succeeded={phase.succeeded} failed={phase.failed} "
              f"refused={phase.refused}"
              + (f" errors={phase.errors}" if phase.errors else ""))
    for name, unit in END_TO_END.items():
        print(f"{name:<22} {e2e.get(name, float('nan')):>14.6g} {unit}")
    tail = run.detail.get("serve_tail", {})
    print(f"serve_tail_ms is p{tail.get('percentile')} of "
          f"{tail.get('samples')} samples")
    if args.trace:
        print(stage_table(run.stage))
        for name, unit in PER_LAYER.items():
            print(f"{name:<38} {layers[name]:>14.6g} {unit}")
        SCRATCH.mkdir(exist_ok=True)
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    detail = {"workload": args.workload, "seed": args.seed,
              "host": measure.host_fingerprint(), "inputs": run.inputs,
              "phases": {n: p.as_dict() for n, p in run.phases.items()},
              "setup_reps_s": run.setup_reps,
              "setup_once_s": run.setup_once,
              **{k: v for k, v in run.detail.items()}}
    print("detail: " + json.dumps(detail, default=str))

    result = {
        "correct": not run.failures,
        "attempted": sum(p.sent for p in run.phases.values()),
        "failed": sum(p.failed for p in run.phases.values()),
        "metrics": {name: {"value": value if name not in bad else None,
                           "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
