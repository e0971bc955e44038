#!/usr/bin/env python3
"""Forecast-serving regression gate for run_benchmarks.sh.

Five checks at smoke scale (see docs/SERVING.md), results recorded in
``BENCH_SERVE.json`` at the repo root:

1. **Parity** — a forecast served through the full stack (registry ->
   checksummed checkpoint -> model forward -> response cache) must be
   bit-identical to calling ``forecast_latest`` on the fitted
   forecaster directly, cold and warm.  Any divergence means the
   serving path no longer computes what the paper's model computes.
2. **Cache speedup** — a response-cache hit must be at least
   ``MIN_CACHE_SPEEDUP``x faster than a cold (cache-cleared,
   model-loaded) forward; the cache is the first rung of the
   degradation ladder and must stay effectively free.
3. **Throughput floor** — a mixed request stream (repeats + new
   windows) must sustain at least ``MIN_FORECASTS_PER_SEC``
   forecasts/sec; p50/p99 latency and forecasts/sec are recorded.
   ``p99_ms`` covers the whole stream (including the request that
   loads the model); ``p99_warm_ms`` excludes the first pass over the
   distinct windows and is the steady-state number to compare across
   commits.
4. **Transport floor** — a worker-pool round trip over the
   shared-memory ring must be at least ``MIN_SHM_SPEEDUP``x faster
   than the same round trip over the pickled pipe at a metro-size
   payload (``TRANSPORT_REGIONS`` regions), and the two transports
   must return bit-identical forecasts.  No /dev/shm segment may
   survive pool close.
5. **Shedding** — under synthetic overload (one worker, bounded
   queue, deadlines shorter than the backlog) the pool must shed at
   least one request with :class:`ShedError` *and* still serve at
   least one, then answer normally once the burst passes.

Exits non-zero on any failure so the benchmark sweep fails loudly.

Usage: python3 benchmarks/serve_smoke.py
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import prepare, toy_dataset
from repro.experiments.methods import MethodBudget, make_bf
from repro.forecast import forecast_latest
from repro.persistence import save_checkpoint
from repro.histograms.histogram import HistogramSpec
from repro.histograms.tensor_builder import ODTensorSequence
from repro.serve import (ForecastRequest, ForecastResponse,
                         ForecastService, ForecastWorkerPool, ModelKey,
                         ShedError)
from repro.serve_shm import leaked_segments, slot_bytes_for

S, H = 4, 2
N_REQUESTS = 60
N_TAILS = 6                      # distinct "nows" cycled in the stream
TIMING_REPEATS = 30
MIN_CACHE_SPEEDUP = 5.0
MIN_FORECASTS_PER_SEC = 25.0
TRANSPORT_REGIONS = 500          # metro-size payload for the shm floor
TRANSPORT_S, TRANSPORT_H = 2, 1
TRANSPORT_REPEATS = 5
MIN_SHM_SPEEDUP = 2.0
OVERLOAD_THREADS = 8
OVERLOAD_MAX_INFLIGHT = 2
REPORT = Path(__file__).parent.parent / "BENCH_SERVE.json"


def _fit():
    dataset = toy_dataset(n_days=2, n_regions=8, seed=0)
    data = prepare(dataset, s=S, h=H)
    budget = MethodBudget(epochs=1, batch_size=8, max_train_batches=4)
    forecaster = make_bf(data, budget)
    forecaster.fit(data.windows, data.split, horizon=H)
    return data, budget, forecaster


def _service(data, budget, path, key):
    service = ForecastService()
    service.register(key, path,
                     lambda: make_bf(data, budget).model)
    return service


def check_parity(data, budget, forecaster, path, key):
    """Served == forecast_latest, bitwise, cold and warm."""
    failures = []
    t = data.sequence.n_intervals
    tails = [data.sequence.slice(0, t - i) for i in range(3)]
    service = _service(data, budget, path, key)
    for repeat in range(2):                  # cold pass, then warm pass
        for tail in tails:
            direct = forecast_latest(forecaster, tail, S, H)
            served = service.forecast(key, tail, S, H)
            if not np.array_equal(served, direct):
                failures.append(
                    f"serving diverged from forecast_latest "
                    f"(repeat {repeat}, max abs diff "
                    f"{np.abs(served - direct).max():.3e})")
    service.close()
    return {"bit_identical": not failures, "windows": len(tails)}, failures


def check_cache_speedup(data, budget, path, key):
    """Best-of-N cache hit vs cold (cache-cleared, model-loaded) forward."""
    service = _service(data, budget, path, key)
    request = ForecastRequest(key, data.sequence, S, H)
    service.forecast_one(request)            # load model + fill cache
    cold_s = hit_s = float("inf")
    for _ in range(TIMING_REPEATS):
        service.cache.clear()
        start = time.perf_counter()
        response = service.forecast_one(request)
        cold_s = min(cold_s, time.perf_counter() - start)
        assert response.cache == "miss"
        start = time.perf_counter()
        response = service.forecast_one(request)
        hit_s = min(hit_s, time.perf_counter() - start)
        assert response.cache == "hit"
    service.close()
    speedup = cold_s / hit_s
    section = {"cold_ms": cold_s * 1e3, "hit_ms": hit_s * 1e3,
               "speedup": speedup, "floor": MIN_CACHE_SPEEDUP}
    failures = []
    if speedup < MIN_CACHE_SPEEDUP:
        failures.append(
            f"cache hit only {speedup:.1f}x faster than cold forward "
            f"({hit_s * 1e3:.3f} vs {cold_s * 1e3:.3f} ms), need >= "
            f"{MIN_CACHE_SPEEDUP}x")
    return section, failures


def check_throughput(data, budget, path, key):
    """Forecasts/sec and latency percentiles over a mixed stream."""
    service = _service(data, budget, path, key)
    t = data.sequence.n_intervals
    requests = [
        ForecastRequest(key, data.sequence.slice(0, t - i % N_TAILS), S, H)
        for i in range(N_REQUESTS)]
    latencies = []
    for request in requests:
        start = time.perf_counter()
        response = service.forecast_one(request)
        latencies.append(time.perf_counter() - start)
        assert response.ok, response.error
    stats = service.stats()
    service.close()
    total = sum(latencies)

    def pct(samples, q):
        ms = sorted(1e3 * x for x in samples)
        return ms[min(len(ms) - 1, int(q * len(ms)))]

    # The first request loads the model; folding that one-off cost into
    # p99 hides steady-state regressions behind load noise (and vice
    # versa), so the warm percentile excludes the first pass over the
    # N_TAILS distinct windows.
    warm = latencies[N_TAILS:]
    section = {
        "n_requests": N_REQUESTS,
        "distinct_windows": N_TAILS,
        "forecasts_per_sec": N_REQUESTS / total,
        "p50_ms": pct(latencies, 0.50),
        "p99_ms": pct(latencies, 0.99),
        "p99_warm_ms": pct(warm, 0.99),
        "floor_per_sec": MIN_FORECASTS_PER_SEC,
        "cache": stats["cache"],
    }
    failures = []
    if section["forecasts_per_sec"] < MIN_FORECASTS_PER_SEC:
        failures.append(
            f"throughput {section['forecasts_per_sec']:.1f}/s below the "
            f"{MIN_FORECASTS_PER_SEC}/s floor")
    return section, failures



def _metro_sequence(n_regions=TRANSPORT_REGIONS):
    """A synthetic metro-size window: (s, N, N, K) normalized
    histograms with every pair observed.  Contract validation is
    skipped (``_validated=True``) — the payload exercises the
    transport, not the data contract."""
    spec = HistogramSpec.paper_default()
    n, k = n_regions, spec.n_buckets
    rng = np.random.default_rng(0)
    tensors = rng.random((TRANSPORT_S, n, n, k))
    tensors /= tensors.sum(axis=-1, keepdims=True)
    mask = np.ones((TRANSPORT_S, n, n), dtype=bool)
    counts = np.full((TRANSPORT_S, n, n), 3.0)
    return ODTensorSequence(tensors=tensors, mask=mask, counts=counts,
                            spec=spec, interval_minutes=30.0,
                            _validated=True)


class _EchoService:
    """A deterministic, content-dependent stand-in forward: the
    response depends on every request byte, so a bitwise-equal answer
    proves the transport moved the payload intact — without fitting a
    500-region model inside a smoke gate."""

    def forecast_one(self, request):
        prediction = (request.sequence.tensors[:request.horizon]
                      * 2.0 + 0.125)
        return ForecastResponse(request.key, request.horizon, prediction)


class _SlowEchoService(_EchoService):
    """The overload victim: every forward costs a fixed wall-time."""

    FORWARD_SECONDS = 0.05

    def forecast_one(self, request):
        time.sleep(self.FORWARD_SECONDS)
        return super().forecast_one(request)


def check_transport():
    """shm vs pickled-pipe round trip at a metro payload, bitwise."""
    sequence = _metro_sequence()
    key = ModelKey("metro", "transport")
    request = ForecastRequest(key, sequence, TRANSPORT_S, TRANSPORT_H)
    expected = sequence.tensors[:TRANSPORT_H] * 2.0 + 0.125
    spec = sequence.spec
    n, k = TRANSPORT_REGIONS, spec.n_buckets
    # Size the slot from the larger direction (the request window).
    slot_bytes = slot_bytes_for(
        [(TRANSPORT_S, n, n, k), (TRANSPORT_S, n, n),
         (TRANSPORT_S, n, n)],
        [np.float64, np.bool_, np.float64])

    timings, segments = {}, []
    bit_identical = True
    failures = []
    for transport in ("shm", "pickle"):
        pool = ForecastWorkerPool(_EchoService, n_workers=1,
                                  transport=transport,
                                  slot_bytes=slot_bytes)
        segments += pool.segment_names()
        try:
            best = float("inf")
            for repeat in range(TRANSPORT_REPEATS + 1):
                start = time.perf_counter()
                response = pool.forecast(request)
                elapsed = time.perf_counter() - start
                if repeat > 0:               # first trip is warm-up
                    best = min(best, elapsed)
                if not (response.ok
                        and np.array_equal(response.prediction, expected)):
                    bit_identical = False
            if pool.transport_fallbacks:
                failures.append(
                    f"{transport} pool took {pool.transport_fallbacks} "
                    f"transport fallbacks at a payload sized to fit")
        finally:
            pool.close()
        timings[transport] = best
    leaked = leaked_segments(segments)

    payload_mb = (sequence.tensors.nbytes + sequence.mask.nbytes
                  + sequence.counts.nbytes) / 2**20
    speedup = timings["pickle"] / timings["shm"]
    section = {
        "regions": TRANSPORT_REGIONS,
        "payload_mb": payload_mb,
        "slot_bytes": slot_bytes,
        "shm_ms": timings["shm"] * 1e3,
        "pickle_ms": timings["pickle"] * 1e3,
        "speedup": speedup,
        "floor": MIN_SHM_SPEEDUP,
        "bit_identical": bit_identical,
        "leaked_segments": len(leaked),
    }
    if not bit_identical:
        failures.append("shm and pickle transports are not bit-identical")
    if speedup < MIN_SHM_SPEEDUP:
        failures.append(
            f"shm round trip only {speedup:.2f}x faster than pickle "
            f"({timings['shm'] * 1e3:.1f} vs "
            f"{timings['pickle'] * 1e3:.1f} ms at {payload_mb:.0f} MB), "
            f"need >= {MIN_SHM_SPEEDUP}x")
    if leaked:
        failures.append(f"leaked /dev/shm segments after close: {leaked}")
    return section, failures


def check_shedding():
    """Synthetic overload: a thread burst against one slow worker with
    a bounded queue and deadlines shorter than the backlog must shed
    fast (not time out slowly) yet keep serving."""
    import threading

    # Overload is about queueing, not payload size: a small window
    # keeps the forward cost (the sleep) the only latency term.
    sequence = _metro_sequence(n_regions=16)
    key = ModelKey("metro", "overload")
    forward_s = _SlowEchoService.FORWARD_SECONDS
    pool = ForecastWorkerPool(_SlowEchoService, n_workers=1,
                              max_inflight=OVERLOAD_MAX_INFLIGHT)
    failures = []
    try:
        prime = ForecastRequest(key, sequence, TRANSPORT_S, TRANSPORT_H)
        assert pool.forecast(prime).ok       # prime the latency EWMA

        served, shed, shed_ms = [], [], []
        lock = threading.Lock()

        def fire():
            # Room for ~2 queued forwards: the admitted pair meets
            # it, the rest shed on queue depth or EWMA feasibility.
            request = ForecastRequest(
                key, sequence, TRANSPORT_S, TRANSPORT_H,
                deadline=time.monotonic() + 2.4 * forward_s)
            start = time.perf_counter()
            try:
                response = pool.forecast(request)
                with lock:
                    served.append(response.ok)
            except ShedError as error:
                with lock:
                    shed.append(error.reason)
                    shed_ms.append(1e3 * (time.perf_counter() - start))

        threads = [threading.Thread(target=fire)
                   for _ in range(OVERLOAD_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        healthy_after = pool.forecast(prime).ok
        stats = pool.stats()
        section = {
            "n_workers": 1,
            "max_inflight": OVERLOAD_MAX_INFLIGHT,
            "offered": OVERLOAD_THREADS,
            "served": len(served),
            "shed": len(shed),
            "shed_full": stats["queue"]["shed_full"],
            "shed_deadline": stats["queue"]["shed_deadline"],
            "max_shed_ms": max(shed_ms, default=None),
            "ewma_ms": stats["queue"]["ewma_ms"],
            "healthy_after": healthy_after,
        }
        if not shed:
            failures.append("overload burst shed nothing — admission "
                            "control is not engaging")
        if not served or not all(served):
            failures.append("overload burst served nothing — shedding "
                            "must thin the queue, not close the door")
        if shed_ms and max(shed_ms) > 1e3 * forward_s:
            failures.append(
                f"sheds took up to {max(shed_ms):.1f}ms — slower than "
                f"the {1e3 * forward_s:.0f}ms forward they avoid")
        if not healthy_after:
            failures.append("pool unhealthy after the burst")
        if stats["deaths"] or stats["timeouts"]:
            failures.append("overload killed or timed out a worker — "
                            "sheds must not touch the ladder")
    finally:
        pool.close()
    return section, failures


def main() -> int:
    data, budget, forecaster = _fit()
    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    path = tmp / "bf.npz"
    save_checkpoint(path, forecaster.model, epoch=0)
    key = ModelKey("toy", "smoke")

    failures = []
    parity, parity_failures = check_parity(data, budget, forecaster, path,
                                           key)
    failures += parity_failures
    cache, cache_failures = check_cache_speedup(data, budget, path, key)
    failures += cache_failures
    throughput, throughput_failures = check_throughput(data, budget, path,
                                                       key)
    failures += throughput_failures
    transport, transport_failures = check_transport()
    failures += transport_failures
    shedding, shedding_failures = check_shedding()
    failures += shedding_failures

    report = {"scale": "smoke", "s": S, "h": H, "parity": parity,
              "cache": cache, "throughput": throughput,
              "transport": transport, "shedding": shedding}
    REPORT.write_text(json.dumps(report, indent=2, sort_keys=False)
                      + "\n")
    if failures:
        print(f"serve smoke: FAIL ({'; '.join(failures)})")
        return 1
    print(f"serve smoke: OK (served bit-identical to "
          f"forecast_latest, cache hit {cache['speedup']:.0f}x vs cold, "
          f"{throughput['forecasts_per_sec']:,.0f} forecasts/s, "
          f"p50 {throughput['p50_ms']:.2f}ms / "
          f"warm p99 {throughput['p99_warm_ms']:.2f}ms, "
          f"shm {transport['speedup']:.1f}x vs pickle at "
          f"{transport['payload_mb']:.0f}MB, "
          f"{shedding['shed']}/{shedding['offered']} shed under "
          f"overload -> {REPORT.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
