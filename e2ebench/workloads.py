"""The benchmark's workloads: each is one end-to-end pipeline run.

trips -> OD histograms -> windows -> timed fit -> test metrics ->
checkpoint -> registry load -> served forecasts.  Trip generation
(``repro.trips``) is the workload generator: it takes the benchmark's
seed and is excluded from every metric.  The deployed city geometry is
fixed per workload, and so is its latent traffic field; the seed draws
the trips from that field.

Workloads pass no engine, transport, batcher, cache or warm-up option,
so they measure the program's defaults.  The only settings are the ones
the docs tell a user to set: the worker count, the metro slot size from
``serve_shm.slot_bytes_for`` (docs/SERVING.md) and the metro sharding,
``ShardedExecution(mode="blocked")`` under a 64 MiB per-shard budget
with 16 shards (docs/SHARDING.md).  README.md in this directory says why
each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.autodiff import profile
from repro.core import ShardedExecution, TrainConfig, Trainer, af_loss
from repro.core.config import PracticalHyperParameters
from repro.experiments.methods import MethodBudget, make_af, make_bf
from repro.experiments.runner import ExperimentData
from repro.forecast import forecast_latest
from repro.graph import chebyshev_hops, plan_shards
from repro.histograms import (BlockSparseWindowDataset, HistogramSpec,
                              WindowDataset, build_block_sparse_od_tensors,
                              build_od_tensors, chronological_split)
from repro.histograms.tensor_builder import ODTensorSequence
from repro.metrics import evaluate_forecasts
from repro.persistence import save_checkpoint
from repro.regions import chengdu_like, manhattan_like
from repro.regions.city import metro_like
from repro.serve import (ForecastRequest, ForecastService,
                         ForecastWorkerPool, ModelKey, ShedError)
from repro.serve_shm import slot_bytes_for
from repro.trips.datasets import CityDataset
from repro.trips.generator import DemandConfig, TripGenerator
from repro.trips.traffic import LatentTrafficField

import spans
from measure import Phase, forecast_problem, tail, trips_sha256

# -- shared settings ----------------------------------------------------
WORKERS = 2               # = nproc of the 2-core host the figures are from
SETUP_REPS = 3            # data set-up repeated; setup_s takes the median
CITY_DAYS = 3
CITY_S, CITY_H = 6, 3
CITY_BATCH = 8            # pipeline-paper's AF
DEPLOY_BATCH = 4          # the serve workloads' four deployments
METRO_REGIONS = 500
METRO_INTERVALS = 24
METRO_TEST_WINDOWS = 4
METRO_S, METRO_H = 2, 1
METRO_BATCH = 2
METRO_SHARDS = 16
METRO_BUDGET_BYTES = 64 * 1024 * 1024

# Timed work scales with ``--seconds``.  Steps take ~1 s (paper AF),
# ~1.3 s (metro) and 0.1-0.6 s (deployments) on the 2-core reference
# host, whose speed drifts between runs, so the fits run longer than
# ``--seconds`` to steady the median step time.
PAPER_FIT_BATCHES_PER_S = 1.2          # AF, 67 regions, batch 8
METRO_FIT_BATCHES_PER_S = 0.7          # blocked AF, 500 regions, batch 2
DEPLOY_FIT_BATCHES_PER_S = 0.6         # each of the four deployments
PAPER_SERVE_PER_S = 25.0               # closed-loop requests, ~40 ms each

# Latency limits that goodput is counted against.
PAPER_LIMIT_S = 0.25
METRO_LIMIT_S = 2.0
OPEN_LIMIT_S = 0.25

# serve-open / serve-burst traffic: fixed rates at about 0.25x and 2x of
# the capacity measured on the 2-core reference host (~36 answers/s from
# the two senders on this key and repeat mix).  README.md says why the
# steady rate is not 0.5x.
STEADY_RATE = 9.0           # requests/s
BURST_RATE = 72.0           # requests/s
STEADY_SHARE = 1.2          # phase lengths as a share of --seconds
BURST_SHARE = 1.0
BURST_DEADLINE_S = 0.15     # per-request deadline after its due time
SENDERS = 2                 # open-loop sender threads
FEED_START = 32             # first "now" (08:00 on day one)
FEED_ADVANCE = 4            # requests per feed interval (~35% repeat)
PRIME_NOW = 24              # set-up priming window, never requested later
LEAD_IN_S = 2.0             # serve-burst: steady traffic before the burst
REFERENCE_SAMPLES = 12      # served answers re-checked in process
REFERENCE_SAMPLES_PAPER = 60
TEST_WINDOWS_PER_DEPLOYMENT = 8


@dataclass
class Run:
    """Everything one invocation measures and checks."""

    workload: str
    seed: int
    seconds: int
    tracer: spans.NullTracer
    workdir: Path
    inputs: Dict[str, str] = field(default_factory=dict)
    setup_reps: List[float] = field(default_factory=list)
    setup_once: float = 0.0
    phases: Dict[str, Phase] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    stage: Optional[dict] = None

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase(name))

    def check(self, ok: bool, why: str) -> bool:
        if not ok:
            self.failures.append(why)
        return ok

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def city_dataset(name: str, seed: int) -> CityDataset:
    """A fixed city and traffic field (seeded as the
    ``repro.trips.datasets`` builders seed them) with trips drawn from
    ``seed``."""
    if name == "nyc":
        city, field_seed = manhattan_like(seed=0, n_regions=67), 1
        demand, n_days, last = DemandConfig(450.0), CITY_DAYS, None
    elif name == "chengdu":
        city, field_seed = chengdu_like(seed=100, n_regions=79), 101
        demand = DemandConfig(450.0, night_gap=True)
        n_days, last = CITY_DAYS, None
    else:
        city, field_seed = metro_like(seed=21, n_regions=METRO_REGIONS), 22
        demand, n_days, last = DemandConfig(4000.0), 1, METRO_INTERVALS
    field_ = LatentTrafficField(city, n_days=n_days, seed=field_seed)
    trips = TripGenerator(field_, demand, seed=2000 + seed).generate(
        last_interval=last)
    return CityDataset(city=city, field=field_, trips=trips)


def _proximity(run: Run, city) -> np.ndarray:
    with run.tracer.span("graph.proximity"):
        return city.proximity()


def prepare_city(run: Run, dataset: CityDataset):
    """OD histograms, windows, split and proximity for one city."""
    with run.tracer.span("histograms.build"):
        sequence = build_od_tensors(dataset.trips, dataset.city,
                                    n_intervals=dataset.field.n_intervals)
    windows = WindowDataset(sequence, s=CITY_S, h=CITY_H)
    split = chronological_split(windows)
    data = ExperimentData(dataset=dataset, sequence=sequence,
                          windows=windows, split=split)
    return data, _proximity(run, dataset.city)


def make_deployment(kind: str, data, weights, batches: int,
                    batch_size: int = DEPLOY_BATCH):
    """An AF or BF forecaster with the benchmark's training budget."""
    budget = MethodBudget(epochs=1, batch_size=batch_size,
                          max_train_batches=batches, max_val_batches=1)
    if kind == "af":
        return make_af(data, budget, origin_weights=weights,
                       dest_weights=weights)
    return make_bf(data, budget)


def model_builder(kind: str, city, weights) -> Callable:
    """The registry's architecture builder.  It needs only the city and
    the bucket count, so a pool can fork before any OD tensor exists."""
    shape = SimpleNamespace(city=city, sequence=SimpleNamespace(
        n_buckets=HistogramSpec.paper_default().n_buckets))
    return lambda: make_deployment(kind, shape, weights, 1).model


# ----------------------------------------------------------------------
# timed fit + fixed test metrics
# ----------------------------------------------------------------------
class StepClock:
    """A window dataset that times the training steps consuming its
    batches: from handing batch k to the trainer until the trainer asks
    for batch k+1 — forward, loss, backward, clipping and optimizer, but
    not the batch assembly.  Only the training loop shuffles (passes
    ``rng``), so validation and prediction batches are not timed."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.steps: List[float] = []

    def __len__(self) -> int:
        return len(self.dataset)

    def __getattr__(self, name):
        return getattr(self.dataset, name)

    def batches(self, indices, batch_size, rng=None):
        for batch in self.dataset.batches(indices, batch_size, rng=rng):
            start = time.perf_counter()
            yield batch
            if rng is not None:
                self.steps.append(time.perf_counter() - start)


class FitTimer:
    """Training-step throughput over one or more fits.

    Each fit contributes its step count at its *median* step time, so a
    host stall during one step does not move the figure.  Traced, the
    steps run under the op profiler and each validation pass under a
    nested one, so the stage buckets hold only training-step ops."""

    def __init__(self, run: Run):
        self.run = run
        self.windows = 0
        self.seconds = 0.0
        self.profiler = None
        self.occupied = 0
        self.slices = 0

    def fit(self, trainer: Trainer, windows, split, horizon: int,
            phase: Phase, sharding: Optional[ShardedExecution] = None,
            traced: bool = False):
        clock = StepClock(windows)
        nonfinite = []
        evaluate = trainer.evaluate

        def traced_evaluate(*args, **kwargs):
            with self.run.tracer.span("fit.validate"), profile():
                return evaluate(*args, **kwargs)

        def telemetry(event, fields):
            if event == "nonfinite_grad":
                nonfinite.append(fields)

        def after_backward(model, epoch, batch):
            for side in sharding.last_occupancy.values():
                self.occupied += side["occupied"]
                self.slices += side["slices"]

        if traced:
            trainer.evaluate = traced_evaluate
        hook = after_backward if traced and sharding is not None else None
        try:
            with (profile() if traced else nullcontext()) as profiler:
                result = trainer.fit(clock, split, horizon,
                                     telemetry=telemetry,
                                     after_backward=hook)
        finally:
            if traced:
                del trainer.evaluate
        if traced:
            self.profiler = profiler
        steps = len(clock.steps)
        self.windows += min(steps * trainer.config.batch_size,
                            len(split.train))
        self.seconds += steps * float(np.median(clock.steps))
        for _ in range(steps - len(nonfinite)):
            phase.ok()
        for event in nonfinite:
            phase.fail(f"non-finite gradient at batch {event['batch']}")
        if not np.isfinite(result.train_losses[-1]):
            phase.demote("non-finite training loss")
        return result


def fit_all(run: Run, jobs: Callable) -> FitTimer:
    """Fit the ``(trainer, windows, split, horizon, sharding)`` jobs that
    ``jobs()`` yields (each call builds fresh models from fixed seeds).

    The traced run fits three times: untraced to warm the process up,
    traced, then untraced again; the trace's overhead is the traced fit
    time over the second untraced one."""
    def untraced() -> FitTimer:
        timer = FitTimer(run)
        run.tracer.active = False
        try:
            for trainer, windows, split, horizon, sharding in jobs():
                timer.fit(trainer, windows, split, horizon,
                          Phase("untraced"), sharding)
        finally:
            run.tracer.active = True
        return timer

    if run.tracing:
        untraced()
    timer = FitTimer(run)
    phase = run.phase("fit")
    profiler_stats: Dict[str, dict] = {}
    for trainer, windows, split, horizon, sharding in jobs():
        with run.tracer.span("fit"):
            timer.fit(trainer, windows, split, horizon, phase, sharding,
                      traced=run.tracing)
        if timer.profiler is not None:
            for label, entry in timer.profiler.as_dict().items():
                merged = profiler_stats.setdefault(label, dict.fromkeys(
                    entry, 0))
                for k, v in entry.items():
                    merged[k] += v
            run.detail.setdefault("profiled_total_s", 0.0)
            run.detail["profiled_total_s"] += timer.profiler.total_seconds()
    run.e2e["train_windows_per_s"] = timer.windows / timer.seconds
    run.detail["fit"] = {"windows": timer.windows,
                         "median_step_seconds": timer.seconds}
    if run.tracing:
        run.stage = spans.stage_split(profiler_stats)
        run.layer["trace.overhead_share"] = \
            timer.seconds / untraced().seconds - 1.0
        if timer.slices:
            run.layer["core.shardexec.occupancy"] = \
                timer.occupied / timer.slices
    return timer


def test_metrics(run: Run, scored: List[tuple]) -> None:
    """Paper Table II metrics on fixed test windows.

    ``scored`` holds ``(predict, windows, indices)``; the metrics are
    cell-weighted over every scored window of every model."""
    phase = run.phase("test")
    sums = {"kl": 0.0, "js": 0.0, "emd": 0.0}
    cells = 0.0
    for predict, windows, indices in scored:
        prediction = predict(indices)
        _, truth, mask = windows.gather(indices)
        for row in prediction:
            problem = forecast_problem(row)
            if problem is None:
                phase.ok()
            else:
                phase.fail(problem)
                run.check(False, f"test forecast: {problem}")
        result = evaluate_forecasts(truth, prediction, mask)
        n = float(result.n_cells.sum())
        for metric in sums:
            sums[metric] += result.overall(metric) * n
        cells += n
    for metric, total in sums.items():
        run.e2e[f"test_{metric}"] = total / cells


def save(run: Run, path: Path, model) -> Path:
    with run.tracer.span("persistence.save_checkpoint"):
        save_checkpoint(path, model, epoch=0)
    return path


# ----------------------------------------------------------------------
# serving loops
# ----------------------------------------------------------------------
def closed_loop(run: Run, phase: Phase, serve: Callable, requests: list,
                limit_s: float) -> List[tuple]:
    """One client, next request after the previous answer."""
    records = []
    start = time.perf_counter()
    for i, request in enumerate(requests):
        with run.tracer.request(i), run.tracer.span("serve.request"):
            begin = time.perf_counter()
            response = serve(request)
            latency = time.perf_counter() - begin
        records.append((request, response, latency))
    elapsed = time.perf_counter() - start
    latencies = []
    good = 0
    for request, response, latency in records:
        latencies.append(latency)
        if not response.ok or response.degraded:
            phase.fail(response.error or "degraded answer")
            continue
        problem = forecast_problem(response.prediction)
        if problem is not None:
            phase.fail(problem)
            run.check(False, f"served forecast: {problem}")
            continue
        phase.ok()
        good += latency <= limit_s
    serve_metrics(run, latencies, good, elapsed)
    return records


def serve_metrics(run: Run, latencies: List[float], good: int,
                  seconds: float) -> None:
    """p50, tail and goodput (answers within the limit per second of the
    phase, from its first send to its last answer)."""
    ms = [1e3 * x for x in latencies]
    run.e2e["serve_p50_ms"] = float(np.median(ms))
    tail_ = tail(ms)
    run.e2e["serve_tail_ms"] = tail_["value"]
    run.e2e["serve_goodput_per_s"] = good / seconds
    run.detail["serve_tail"] = tail_


def serve_layers(run: Run, responses) -> None:
    """Cache and engine layer metrics from the responses themselves."""
    served = [r for r in responses if r is not None and r.ok]
    hits = [1e3 * r.seconds for r in served if r.cache == "hit"]
    misses = [1e3 * r.seconds for r in served if r.cache == "miss"]
    run.layer["serve.cache.hit_share"] = \
        len(hits) / len(served) if served else 0.0
    run.layer["serve.cache.hit_ms"] = float(np.median(hits)) if hits else 0.0
    run.layer["serve.cache.miss_ms"] = \
        float(np.median(misses)) if misses else 0.0


def engine_counts(run: Run, stats_list: List[dict]) -> None:
    captures = replays = 0
    for stats in stats_list:
        for engine in stats.get("engines", {}).values():
            captures += engine["captures"]
            replays += engine["replays"]
    run.layer["serve.engine.captures"] = captures
    run.layer["serve.engine.replays"] = replays


def pool_layers(run: Run, pool: ForecastWorkerPool, sent: int) -> None:
    stats = pool.stats()
    queue = stats["queue"]
    run.layer["serve.pool.forward_ewma_ms"] = queue["ewma_ms"] or 0.0
    run.layer["serve.pool.deaths"] = stats["deaths"]
    run.layer["serve.pool.timeouts"] = stats["timeouts"]
    run.layer["serve.pool.degraded"] = stats["degraded"]
    run.layer["serve_shm.ring.fallback_share"] = \
        stats["transport_fallbacks"] / max(sent, 1)
    run.layer["serve_shm.admission.queue_high_water"] = \
        max(queue["high_water"])
    run.detail["pool"] = stats


def service_factory(run: Run, deployments: Dict[ModelKey, tuple]):
    """What each pool worker runs: a default ForecastService with every
    deployment registered.  Traced, the worker also dumps its own spans
    and service counters after each request."""
    tracer = run.tracer
    workdir = run.workdir

    def factory():
        service = ForecastService()
        for key, (path, builder) in deployments.items():
            service.register(key, path, builder)
        if tracer.enabled:
            tracer.reset()
            forecast_one = service.forecast_one

            def traced_forecast_one(request):
                try:
                    return forecast_one(request)
                finally:
                    spans.dump_worker(tracer, service, workdir)
            service.forecast_one = traced_forecast_one
        return service
    return factory


# ----------------------------------------------------------------------
# pipeline-paper
# ----------------------------------------------------------------------
def pipeline_paper(run: Run) -> None:
    dataset = city_dataset("nyc", run.seed)
    run.inputs["nyc"] = trips_sha256(dataset.trips)
    batches = max(1, round(PAPER_FIT_BATCHES_PER_S * run.seconds))

    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with run.tracer.span("setup.rep"):
            data, weights = prepare_city(run, dataset)
            forecaster = make_deployment("af", data, weights, batches,
                                         CITY_BATCH)
        run.setup_reps.append(time.perf_counter() - start)

    def jobs():
        nonlocal forecaster
        forecaster = make_deployment("af", data, weights, batches,
                                     CITY_BATCH)
        yield forecaster.trainer, data.windows, data.split, CITY_H, None

    fit_all(run, jobs)
    test_metrics(run, [(lambda idx: forecaster.predict(
        data.windows, idx, CITY_H), data.windows, data.split.test)])

    # The CLI's default serving mode: one in-process ForecastService.
    start = time.perf_counter()
    key = ModelKey("nyc", "af")
    path = save(run, run.workdir / "nyc-af.npz", forecaster.model)
    service = ForecastService()
    service.register(key, path, model_builder("af", dataset.city, weights))
    sequence = data.sequence
    prime = service.forecast_one(
        ForecastRequest(key, sequence.slice(0, PRIME_NOW), CITY_S, CITY_H))
    run.setup_once = time.perf_counter() - start
    run.check(prime.ok, f"priming failed: {prime.error}")

    # One request per "now" of the feed, in order, except the priming
    # one: window i's history ends at i+s.  ~40 ms misses drift by ±15%
    # over a second or two, so the phase lasts about ``--seconds``.
    nows = [i + CITY_S for i in range(len(data.windows))
            if i + CITY_S != PRIME_NOW]
    nows = nows[:max(1, round(PAPER_SERVE_PER_S * run.seconds))]
    requests = [ForecastRequest(key, sequence.slice(0, now), CITY_S, CITY_H)
                for now in nows]
    phase = run.phase("serve")
    records = closed_loop(run, phase, service.forecast_one, requests,
                          PAPER_LIMIT_S)
    # forecast_latest costs as much as a served miss, so a fixed number
    # of answers, evenly spaced, is re-checked against it.
    every = max(1, len(records) // REFERENCE_SAMPLES_PAPER)
    for (_, response, _), now in list(zip(records, nows))[::every]:
        if response.prediction is None:
            continue
        direct = forecast_latest(forecaster, sequence.slice(0, now),
                                 CITY_S, CITY_H)
        if not run.check(np.array_equal(response.prediction, direct),
                         f"served != forecast_latest at now={now}"):
            phase.demote("not bit-identical to forecast_latest")
    run.check(all(r.cache == "miss" for _, r, _ in records),
              "a pipeline-paper request hit the cache")
    serve_layers(run, [r for _, r, _ in records])
    engine_counts(run, [service.stats()])
    service.close()


# ----------------------------------------------------------------------
# pipeline-metro
# ----------------------------------------------------------------------
def _metro_sequence(tensor, start: int, stop: int) -> ODTensorSequence:
    """Dense ``[start, stop)`` window of a block-sparse sequence — what
    the live feed hands the server for one "now".  The store passed its
    data contract when it was built and the server checks the window
    again, so the feed does not."""
    tensors, mask = tensor.window(start, stop)
    counts = np.zeros(mask.shape)
    for (bi, bj), block in tensor.count_blocks.items():
        counts[np.ix_(range(stop - start), tensor.row_blocks[bi],
                      tensor.col_blocks[bj])] = block[start:stop]
    return ODTensorSequence(tensors=tensors, mask=mask, counts=counts,
                            spec=tensor.spec,
                            interval_minutes=tensor.interval_minutes,
                            _validated=True)


class MetroSetup:
    """Shard plan, sharded model construction and the trainer's loss."""

    def __init__(self, run: Run, city):
        self.weights = _proximity(run, city)
        orders = [block.order
                  for block in PracticalHyperParameters().gcnn_blocks]
        with run.tracer.span("graph.plan_shards"):
            self.plan = plan_shards(self.weights, n_shards=METRO_SHARDS,
                                    hops=chebyshev_hops(orders))
        self.model = model_builder("af", city, self.weights)

    def execution(self) -> ShardedExecution:
        return ShardedExecution(self.plan, mode="blocked",
                                memory_budget_bytes=METRO_BUDGET_BYTES)

    def sharded_model(self):
        model = self.model()
        model.set_sharding(self.execution())
        return model

    def loss(self, pred, truth, mask, r, c):
        return af_loss(pred, truth, mask, r, c, self.weights, self.weights)


def pipeline_metro(run: Run) -> None:
    dataset = city_dataset("metro", run.seed)
    run.inputs["metro"] = trips_sha256(dataset.trips)
    key = ModelKey("metro", "af")
    path = run.workdir / "metro-af.npz"

    # The pool forks first, while this process is small, so workers do
    # not inherit the OD tensors.  The slot fits the request window.
    start = time.perf_counter()
    serving = MetroSetup(run, dataset.city)
    n, k = METRO_REGIONS, HistogramSpec.paper_default().n_buckets
    slot = slot_bytes_for([(METRO_S, n, n, k), (METRO_S, n, n),
                           (METRO_S, n, n)],
                          [np.float64, np.bool_, np.float64])
    pool = ForecastWorkerPool(
        service_factory(run, {key: (path, serving.sharded_model)}),
        n_workers=WORKERS, slot_bytes=slot)
    spawn_s = time.perf_counter() - start
    try:
        _metro_body(run, dataset, key, path, pool, spawn_s)
    finally:
        pool.close()


def _metro_body(run: Run, dataset, key, path, pool, spawn_s) -> None:
    batches = max(1, round(METRO_FIT_BATCHES_PER_S * run.seconds))
    for _ in range(SETUP_REPS):
        tensor = windows = None       # one metro sequence alive at a time
        start = time.perf_counter()
        with run.tracer.span("setup.rep"):
            setup = MetroSetup(run, dataset.city)
            with run.tracer.span("histograms.build"):
                tensor = build_block_sparse_od_tensors(
                    dataset.trips, dataset.city, setup.plan.row_blocks(),
                    setup.plan.col_blocks(), n_intervals=METRO_INTERVALS)
            windows = BlockSparseWindowDataset(tensor, s=METRO_S, h=METRO_H)
            split = chronological_split(windows)
            setup.model()
        run.setup_reps.append(time.perf_counter() - start)
    run.detail["storage"] = tensor.occupancy()

    config = TrainConfig(epochs=1, batch_size=METRO_BATCH,
                         max_train_batches=batches, max_val_batches=1)
    trainers = []

    def jobs():
        execution = setup.execution()
        trainer = Trainer(setup.model(), setup.loss, config,
                          sharding=execution)
        trainers.append((trainer, execution))
        yield trainer, windows, split, METRO_H, execution

    fit_all(run, jobs)
    trainer, execution = trainers[-1]
    run.layer["core.shardexec.max_shard_peak_mib"] = \
        execution.max_shard_peak_bytes / 2**20
    run.check(0 < execution.max_shard_peak_bytes <= METRO_BUDGET_BYTES,
              "metro shard peak outside the 64 MiB budget")
    test_metrics(run, [(lambda idx: trainer.predict(windows, idx, METRO_H),
                        windows, split.test[:METRO_TEST_WINDOWS])])

    start = time.perf_counter()
    save(run, path, trainer.model)
    prime = pool.forecast(ForecastRequest(
        key, _metro_sequence(tensor, 0, METRO_S), METRO_S, METRO_H))
    run.setup_once = spawn_s + time.perf_counter() - start
    run.check(prime.ok, f"metro priming failed: {prime.error}")

    # Every remaining "now" once, closed loop: all misses.
    nows = list(range(METRO_S + 1, METRO_INTERVALS + 1))
    requests = [ForecastRequest(key, _metro_sequence(tensor, now - METRO_S,
                                                     now),
                                METRO_S, METRO_H) for now in nows]
    phase = run.phase("serve")
    records = closed_loop(run, phase, pool.forecast, requests,
                          METRO_LIMIT_S)
    del requests
    run.check(all(r.cache == "miss" for _, r, _ in records),
              "a pipeline-metro request hit the cache")
    # Pool answer == in-process sharded predict, at the first and the
    # last "now" that has a window.
    for now in (nows[0], METRO_INTERVALS - METRO_H):
        served = records[nows.index(now)][1].prediction
        direct = trainer.predict(windows, [now - METRO_S], METRO_H)[0]
        if not run.check(served is not None
                         and np.array_equal(served, direct),
                         f"metro pool != in-process predict at now={now}"):
            phase.demote("not bit-identical to in-process predict")
    serve_layers(run, [r for _, r, _ in records])
    pool_layers(run, pool, len(records) + 1)


# ----------------------------------------------------------------------
# serve-open / serve-burst
# ----------------------------------------------------------------------
# Zipf key popularity, most popular first: BF is what ``repro serve``
# deploys, NYC the busier city.
KEYS = (ModelKey("nyc", "bf"), ModelKey("nyc", "af"),
        ModelKey("chengdu", "bf"), ModelKey("chengdu", "af"))


def schedule(seed: int, stream: int, n: int, seconds: float,
             first: int = 0) -> List[tuple]:
    """``n`` Poisson arrivals in ``[0, seconds)`` (sorted uniform times:
    a Poisson process conditioned on its count) drawn from ``seed``.

    The key sequence (Zipf popularity) and the feed — a "now" that
    advances one interval every ``FEED_ADVANCE`` requests, counting from
    request number ``first`` — do not depend on the seed, so every seed
    offers the same hit/miss and model mix."""
    due = np.sort(np.random.default_rng([seed, stream]).uniform(
        0.0, seconds, size=n))
    weights = 1.0 / np.arange(1, len(KEYS) + 1)
    keys = np.random.default_rng([0, stream]).choice(
        len(KEYS), size=n, p=weights / weights.sum())
    return [(float(due[i]), KEYS[keys[i]],
             FEED_START + (first + i) // FEED_ADVANCE) for i in range(n)]


def repeat_share(plan: List[tuple]) -> float:
    """Share of requests whose (key, window) an earlier request asked."""
    seen = set()
    repeats = 0
    for _, key, now in plan:
        repeats += (key, now) in seen
        seen.add((key, now))
    return repeats / len(plan)


def open_loop(run: Run, pool, plan: List[tuple], sequences,
              deadline_s: Optional[float]):
    """Send ``plan`` on schedule from ``SENDERS`` threads.

    Returns ``records[i] = (due, start, end, response, outcome)`` in
    monotonic seconds, where ``outcome`` is a :class:`ShedError`, a
    failed output check (a string) or None, and a sample of served
    predictions for the in-process reference check.  Only the sampled
    predictions are kept, so memory stays flat."""
    records: List[Optional[tuple]] = [None] * len(plan)
    samples: Dict[int, np.ndarray] = {}
    sample_every = max(1, len(plan) // REFERENCE_SAMPLES)
    counter = itertools.count()
    lock = threading.Lock()
    t0 = time.monotonic() + 0.05

    def sender():
        while True:
            with lock:
                i = next(counter)
            if i >= len(plan):
                return
            offset, key, now = plan[i]
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            request = ForecastRequest(
                key, sequences[key.city].slice(0, now), CITY_S, CITY_H,
                deadline=None if deadline_s is None else due + deadline_s)
            response = outcome = None
            with run.tracer.request(i), run.tracer.span("serve.request"):
                start = time.monotonic()
                try:
                    response = pool.forecast(request)
                except ShedError as exc:
                    outcome = exc
                end = time.monotonic()
            if response is not None and response.prediction is not None:
                outcome = forecast_problem(response.prediction)
                if outcome is None and i % sample_every == 0:
                    samples[i] = response.prediction
                response.prediction = None
            records[i] = (due, start, end, response, outcome)

    threads = [threading.Thread(target=sender, name=f"bench-sender-{n}")
               for n in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, samples


def serve_deployments(run: Run, burst: bool) -> None:
    names = ("nyc", "chengdu")
    datasets = {name: city_dataset(name, run.seed) for name in names}
    for name, dataset in datasets.items():
        run.inputs[name] = trips_sha256(dataset.trips)

    # Builders need only each city's proximity, so the pool forks
    # before any OD tensor exists.
    start = time.perf_counter()
    weights = {name: _proximity(run, datasets[name].city) for name in names}
    deployments = {
        key: (run.workdir / f"{key.city}-{key.scenario}.npz",
              model_builder(key.scenario, datasets[key.city].city,
                            weights[key.city]))
        for key in KEYS}
    pool = ForecastWorkerPool(service_factory(run, deployments),
                              n_workers=WORKERS)
    spawn_s = time.perf_counter() - start
    try:
        _serve_body(run, burst, datasets, deployments, pool, spawn_s)
    finally:
        pool.close()


def _serve_body(run: Run, burst: bool, datasets, deployments, pool,
                spawn_s) -> None:
    batches = max(1, round(DEPLOY_FIT_BATCHES_PER_S * run.seconds))
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with run.tracer.span("setup.rep"):
            prepared = {name: prepare_city(run, dataset)
                        for name, dataset in datasets.items()}
            forecasters = {key: make_deployment(key.scenario,
                                                *prepared[key.city],
                                                batches)
                           for key in KEYS}
        run.setup_reps.append(time.perf_counter() - start)

    def jobs():
        for key in KEYS:
            data, weights = prepared[key.city]
            forecasters[key] = make_deployment(key.scenario, data, weights,
                                               batches)
            yield (forecasters[key].trainer, data.windows, data.split,
                   CITY_H, None)

    fit_all(run, jobs)
    scored = []
    for key in KEYS:
        data = prepared[key.city][0]
        scored.append((lambda idx, f=forecasters[key], d=data: f.predict(
            d.windows, idx, CITY_H), data.windows,
            data.split.test[:TEST_WINDOWS_PER_DEPLOYMENT]))
    test_metrics(run, scored)

    start = time.perf_counter()
    for key in KEYS:
        save(run, deployments[key][0], forecasters[key].model)
    sequences = {name: data.sequence for name, (data, _) in prepared.items()}
    for key in KEYS:        # first load + tape capture, never timed later
        prime = pool.forecast(ForecastRequest(
            key, sequences[key.city].slice(0, PRIME_NOW), CITY_S, CITY_H))
        run.check(prime.ok, f"priming {key} failed: {prime.error}")
    run.setup_once = spawn_s + time.perf_counter() - start

    reference = ForecastService()
    for key, (path, build) in deployments.items():
        reference.register(key, path, build)
    first = 0
    if burst:
        # The burst meets a live pool: a short steady lead-in first, as
        # in production, so admission control judges deadlines against
        # warm forwards rather than the set-up's first loads.
        lead = schedule(run.seed, 0, int(round(STEADY_RATE * LEAD_IN_S)),
                        LEAD_IN_S)
        open_phase(run, pool, reference, "lead-in", lead, sequences, None,
                   OPEN_LIMIT_S)
        first = len(lead)
    rate = BURST_RATE if burst else STEADY_RATE
    seconds = (BURST_SHARE if burst else STEADY_SHARE) * run.seconds
    plan = schedule(run.seed, 1, int(round(rate * seconds)), seconds, first)
    result = open_phase(run, pool, reference, "burst" if burst else "steady",
                        plan, sequences,
                        BURST_DEADLINE_S if burst else None,
                        BURST_DEADLINE_S if burst else OPEN_LIMIT_S)
    reference.close()
    latencies, good, elapsed, late_ms, shed_ms, responses = result
    serve_metrics(run, latencies, good, elapsed)
    run.detail["offered"] = {"rate_per_s": rate, "requests": len(plan),
                             "seconds": seconds,
                             "repeat_share": repeat_share(plan)}
    serve_layers(run, responses)
    pool_layers(run, pool, sum(p.sent for n, p in run.phases.items()
                               if n not in ("fit", "test")) + len(KEYS))
    phase = run.phases["burst" if burst else "steady"]
    run.layer["serve_shm.admission.shed_share"] = \
        phase.refused / max(phase.sent, 1)
    run.layer["serve_shm.admission.shed_ms"] = \
        float(np.median(shed_ms)) if shed_ms else 0.0
    run.layer["serve.generator.late_p50_ms"] = float(np.median(late_ms))
    run.layer["serve.generator.late_max_ms"] = float(max(late_ms))


def open_phase(run: Run, pool, reference, name: str, plan, sequences,
               deadline_s: Optional[float], limit_s: float):
    """Run one open-loop phase, account for every request and check a
    sample of served answers against the in-process ``reference``."""
    last_now = plan[-1][2]
    if last_now > min(seq.n_intervals for seq in sequences.values()):
        raise ValueError(f"--seconds {run.seconds} outruns the "
                         f"{CITY_DAYS}-day feed (now={last_now})")
    records, samples = open_loop(run, pool, plan, sequences, deadline_s)
    elapsed = max(r[2] for r in records) - min(r[0] for r in records)
    phase = run.phase(name)
    latencies, late_ms, shed_ms = [], [], []
    good = 0
    for due, start, end, response, outcome in records:
        late_ms.append(1e3 * (start - due))
        if isinstance(outcome, ShedError):
            phase.refuse()
            shed_ms.append(1e3 * (end - start))
        elif not response.ok or response.degraded:
            phase.fail(response.error or "degraded answer")
        elif outcome is not None:
            phase.fail(outcome)
            run.check(False, f"served forecast: {outcome}")
        else:
            phase.ok()
            latencies.append(end - due)
            good += end - due <= limit_s
    run.check(bool(latencies), f"{name}: no request was served")
    run.check(bool(samples), f"{name}: no served answer was sampled")
    for i, prediction in sorted(samples.items()):
        _, key, now = plan[i]
        direct = reference.forecast(key, sequences[key.city].slice(0, now),
                                    CITY_S, CITY_H)
        if not run.check(np.array_equal(prediction, direct),
                         f"pool != in-process service for {key} "
                         f"now={now}"):
            phase.demote("not bit-identical to in-process service")
    run.detail.setdefault("reference_samples", {})[name] = len(samples)
    return (latencies, good, elapsed, late_ms, shed_ms,
            [record[3] for record in records])


def serve_open(run: Run) -> None:
    serve_deployments(run, burst=False)


def serve_burst(run: Run) -> None:
    serve_deployments(run, burst=True)


WORKLOADS = {
    "pipeline-paper": pipeline_paper,
    "pipeline-metro": pipeline_metro,
    "serve-open": serve_open,
    "serve-burst": serve_burst,
}
