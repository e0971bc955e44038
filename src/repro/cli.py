"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``
    Fit a roster of methods on a synthetic city and print the Table II
    style accuracy table (optionally export it as JSON).
``sparseness``
    Print Figure 7 style sparseness statistics for a city dataset.
``generate``
    Generate a city dataset and save its OD tensor sequence as ``.npz``.
``serve``
    Fit a quick model, register its checkpoint in a forecast service,
    and replay a stream of "forecast now" requests, printing
    forecasts/sec and latency percentiles (see docs/SERVING.md).
``info``
    Print library version and subsystem summary.

Examples
--------
::

    python -m repro compare --city toy --methods nh,bf,af --epochs 6
    python -m repro sparseness --city nyc --days 4
    python -m repro generate --city cd --days 2 --out cd_tensors.npz
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

CITY_CHOICES = ("toy", "nyc", "cd")


def _build_dataset(args):
    from .trips import (chengdu_like_dataset, nyc_like_dataset,
                        toy_dataset)
    if args.city == "toy":
        return toy_dataset(n_days=args.days, n_regions=12, seed=args.seed)
    if args.city == "nyc":
        return nyc_like_dataset(n_days=args.days, seed=args.seed)
    return chengdu_like_dataset(n_days=args.days, seed=args.seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--city", choices=CITY_CHOICES, default="toy",
                        help="which synthetic city to build")
    parser.add_argument("--days", type=int, default=4,
                        help="days of trips to generate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--contracts", default="repair",
                        choices=("off", "repair", "strict"),
                        help="data-contract policy at pipeline "
                             "boundaries (see docs/ROBUSTNESS.md): "
                             "repair fixes what it safely can, strict "
                             "rejects, off trusts the input")


def _apply_contracts(args) -> None:
    from .contracts import set_contract_policy
    set_contract_policy(args.contracts)


def cmd_compare(args) -> int:
    _apply_contracts(args)
    import repro.autodiff as autodiff

    previous = autodiff.get_default_dtype()
    if args.float64:
        autodiff.set_default_dtype(np.float64)
    try:
        return _compare(args)
    finally:
        autodiff.set_default_dtype(previous)


def _compare(args) -> int:
    from .experiments import (MethodBudget, full_roster, prepare,
                              run_comparison)
    from .persistence import export_comparison

    dataset = _build_dataset(args)
    data = prepare(dataset, s=args.s, h=args.h)
    budget = MethodBudget(epochs=args.epochs, batch_size=args.batch_size,
                          max_train_batches=args.max_batches)
    roster = full_roster(budget)
    wanted = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in roster]
    if unknown:
        print(f"unknown methods: {unknown}; choose from "
              f"{sorted(roster)}", file=sys.stderr)
        return 2
    roster = {name: roster[name] for name in wanted}
    print(f"{args.city}: {len(dataset.trips):,} trips, "
          f"{len(data.windows)} windows, "
          f"{data.sequence.sparsity().mean():.1%} mean sparsity")
    telemetry = None
    if args.telemetry:
        from .telemetry import TelemetryLogger
        telemetry = TelemetryLogger(args.telemetry,
                                    run_id=f"compare-{args.city}")
    try:
        result = run_comparison(data, roster,
                                max_test_windows=args.max_test_windows,
                                method_timeout=args.method_timeout,
                                artifact_dir=args.artifact_dir,
                                telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    for name, error in result.failures().items():
        print(f"method {name} failed: {error}", file=sys.stderr)
    print(result.format_table())
    from .viz import bar_chart
    print("\nOverall EMD (lower is better):")
    print(bar_chart({name: method.evaluation.overall("emd")
                     for name, method in result.methods.items()},
                    width=30))
    if args.out:
        export_comparison(result, args.out)
        print(f"rows written to {args.out}")
    return 0


def cmd_sparseness(args) -> int:
    _apply_contracts(args)
    from .experiments import prepare, sparseness_report

    dataset = _build_dataset(args)
    data = prepare(dataset, s=3, h=1)
    report = sparseness_report(data.sequence)
    print(f"{args.city}: {report['n_intervals']} intervals, "
          f"{report['overall_pair_coverage']:.1%} of OD pairs ever seen")
    for level, stats in report["by_min_trips"].items():
        print(f"  min_trips={level}: mean per-interval coverage "
              f"{stats['mean_cell_coverage']:.2%} "
              f"(p90 {stats['p90_cell_coverage']:.2%})")
    return 0


def cmd_generate(args) -> int:
    _apply_contracts(args)
    from .histograms import build_od_tensors
    from .persistence import save_sequence

    dataset = _build_dataset(args)
    sequence = build_od_tensors(dataset.trips, dataset.city,
                                n_intervals=dataset.field.n_intervals)
    save_sequence(sequence, args.out)
    print(f"{len(dataset.trips):,} trips -> tensors "
          f"{sequence.tensors.shape} saved to {args.out}")
    return 0


def cmd_headroom(args) -> int:
    _apply_contracts(args)
    from .histograms import build_od_tensors
    from .trips import oracle_headroom

    dataset = _build_dataset(args)
    sequence = build_od_tensors(dataset.trips, dataset.city,
                                n_intervals=dataset.field.n_intervals)
    report = oracle_headroom(dataset.field, sequence)
    print(f"{args.city}: conditional-oracle EMD "
          f"{report.conditional_emd:.4f}, slot-marginal EMD "
          f"{report.marginal_emd:.4f}")
    print(f"history-conditioning headroom: {report.gain:.1%} "
          "(the EMD gain a perfect short-history forecaster has over a "
          "perfect periodic one)")
    return 0


def cmd_serve(args) -> int:
    _apply_contracts(args)
    import tempfile
    import time
    from pathlib import Path

    from .experiments import MethodBudget, make_bf, prepare
    from .forecast import tail_slice
    from .persistence import save_checkpoint
    from .serve import (ForecastRequest, ForecastService,
                        ForecastWorkerPool, ModelKey)

    dataset = _build_dataset(args)
    data = prepare(dataset, s=args.s, h=args.h)
    budget = MethodBudget(epochs=args.epochs, batch_size=args.batch_size,
                          max_train_batches=args.max_batches)
    forecaster = make_bf(data, budget)
    print(f"fitting bf on {args.city} "
          f"({len(data.windows)} windows, {args.epochs} epochs)...")
    forecaster.fit(data.windows, data.split, horizon=args.h)
    checkpoint_dir = Path(args.checkpoint_dir
                          or tempfile.mkdtemp(prefix="repro-serve-"))
    path = checkpoint_dir / f"bf-{args.city}.npz"
    save_checkpoint(path, forecaster.model, epoch=args.epochs - 1)
    print(f"checkpoint: {path}")

    telemetry = None
    if args.telemetry:
        from .telemetry import TelemetryLogger
        telemetry = TelemetryLogger(args.telemetry,
                                    run_id=f"serve-{args.city}")
    key = ModelKey(args.city, "demo")

    def builder():
        return make_bf(data, budget).model

    def factory():
        service = ForecastService(telemetry=telemetry)
        service.register(key, path, builder)
        return service

    # Cycle a few distinct "nows" so the stream mixes cache hits with
    # model forwards, like a live feed where most queries repeat the
    # current interval.
    t = data.sequence.n_intervals
    tails = [data.sequence.slice(0, t - i) for i in range(4)]
    pool = None
    service = None
    if args.workers > 0:
        pool = ForecastWorkerPool(factory, n_workers=args.workers,
                                  request_timeout=args.request_timeout,
                                  transport=args.transport,
                                  telemetry=telemetry)
        run = lambda req: pool.forecast(req)          # noqa: E731
    else:
        service = factory()
        run = lambda req: service.forecast_one(req)   # noqa: E731
    latencies = []
    hits = 0
    try:
        for i in range(args.requests):
            sequence = tails[i % len(tails)]
            request = ForecastRequest(key, tail_slice(sequence, args.s),
                                      args.s, args.h)
            start = time.perf_counter()
            response = run(request)
            latencies.append(time.perf_counter() - start)
            if not response.ok:
                print(f"request {i} failed: {response.error}",
                      file=sys.stderr)
                return 1
            hits += response.cache == "hit"
        total = sum(latencies)
        ms = sorted(1e3 * x for x in latencies)
        pct = lambda q: ms[min(len(ms) - 1,                # noqa: E731
                               int(q * len(ms)))]
        print(f"{args.requests} forecasts in {total:.2f}s = "
              f"{args.requests / total:,.0f}/s  "
              f"(p50 {pct(0.50):.2f}ms, p99 {pct(0.99):.2f}ms, "
              f"{hits}/{args.requests} cache hits)")
        if pool is not None:
            print(f"pool: {pool.stats()}")
        else:
            stats = service.stats()
            print(f"cache: {stats['cache']}  registry: "
                  f"{stats['registry']}")
    finally:
        if pool is not None:
            pool.close()
        if service is not None:
            service.close()
        if telemetry is not None:
            telemetry.close()
    return 0


def cmd_info(args) -> int:
    import repro
    print(f"repro {repro.__version__} — stochastic OD matrix forecasting "
          "(ICDE 2020 reproduction)")
    print("subsystems: autodiff, graph, regions, trips, histograms, "
          "core (BF/AF), baselines (NH/GP/VAR/MR/FC), metrics, "
          "experiments")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="fit methods, print table")
    _add_common(compare)
    compare.add_argument("--methods", default="nh,bf,af",
                         help="comma-separated subset of "
                              "nh,gp,var,mr,fc,bf,af")
    compare.add_argument("--s", type=int, default=6)
    compare.add_argument("--h", type=int, default=3)
    compare.add_argument("--epochs", type=int, default=6)
    compare.add_argument("--batch-size", type=int, default=16)
    compare.add_argument("--max-batches", type=int, default=12)
    compare.add_argument("--max-test-windows", type=int, default=32)
    compare.add_argument("--float64", action="store_true",
                         help="train in float64 (about 2x slower than "
                              "the float32 default)")
    compare.add_argument("--out", default=None,
                         help="write the result rows as JSON")
    compare.add_argument("--telemetry", default=None, metavar="FILE",
                         help="append JSONL run events to FILE "
                              "(see docs/TELEMETRY.md)")
    compare.add_argument("--artifact-dir", default=None, metavar="DIR",
                         help="persist per-method results in DIR and "
                              "skip already-completed methods on rerun")
    compare.add_argument("--method-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="kill and retry a method stuck longer "
                              "than this")
    compare.set_defaults(fn=cmd_compare)

    sparse = sub.add_parser("sparseness", help="Fig. 7 style statistics")
    _add_common(sparse)
    sparse.set_defaults(fn=cmd_sparseness)

    generate = sub.add_parser("generate", help="save OD tensors as .npz")
    _add_common(generate)
    generate.add_argument("--out", required=True)
    generate.set_defaults(fn=cmd_generate)

    headroom = sub.add_parser(
        "headroom", help="oracle forecastability diagnostic (DESIGN §7)")
    _add_common(headroom)
    headroom.set_defaults(fn=cmd_headroom)

    serve = sub.add_parser(
        "serve", help="serve forecasts from a registry of checkpoints")
    _add_common(serve)
    serve.add_argument("--s", type=int, default=6)
    serve.add_argument("--h", type=int, default=3)
    serve.add_argument("--epochs", type=int, default=2)
    serve.add_argument("--batch-size", type=int, default=16)
    serve.add_argument("--max-batches", type=int, default=8)
    serve.add_argument("--requests", type=int, default=50,
                       help="number of forecast-now requests to replay")
    serve.add_argument("--workers", type=int, default=0,
                       help="serve through this many fork-isolated "
                            "worker processes (0 = in-process)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request worker timeout in seconds")
    serve.add_argument("--transport", default="shm",
                       choices=("shm", "pickle"),
                       help="worker payload transport: zero-copy "
                            "shared-memory ring (default, falls back "
                            "to pickle per oversized payload) or the "
                            "pickled pipe (see docs/SERVING.md)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="where to write the demo checkpoint "
                            "(default: a temp dir)")
    serve.add_argument("--telemetry", default=None, metavar="FILE",
                       help="append JSONL serve events to FILE "
                            "(see docs/TELEMETRY.md)")
    serve.set_defaults(fn=cmd_serve)

    info = sub.add_parser("info", help="version and subsystem summary")
    info.set_defaults(fn=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
