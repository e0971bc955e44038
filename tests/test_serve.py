"""Tests for the forecast serving layer (``repro.serve``).

The serving contract (docs/SERVING.md): a single served request is
bit-identical to calling :func:`repro.forecast.forecast_latest` on the
fitted forecaster; corrupt checkpoints are reported and never served;
hot-reloads invalidate every answer cached from the old weights; and
every failure degrades down an explicit ladder (cache hit -> healthy
forward -> retry -> stale flagged answer -> error response) instead of
taking the service down.
"""

import dataclasses
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.autodiff import set_default_dtype
from repro.baselines import NeuralForecaster
from repro.core.recovery import publish
from repro.experiments import MethodBudget, make_bf, prepare
from repro.faultinject import corrupt_file
from repro.forecast import forecast_latest
from repro.persistence import save_checkpoint
from repro.serve import (ForecastRequest, ForecastResponse, ForecastService,
                         ForecastWorkerPool, ModelKey, ModelRegistry,
                         ModelUnavailableError, ResponseCache, ServeConfig,
                         ShedError, TransportFallbackWarning,
                         window_signature)
from repro.serve_shm import leaked_segments

S, H = 3, 2
BUDGET = MethodBudget(epochs=1, batch_size=8, max_train_batches=3)


@pytest.fixture(scope="module")
def served(dataset, tmp_path_factory):
    """A fitted BF, its checksummed checkpoint, and a builder closure."""
    data = prepare(dataset, s=S, h=H)
    forecaster = make_bf(data, BUDGET)
    forecaster.fit(data.windows, data.split, horizon=H)
    forecaster.model.eval()
    path = tmp_path_factory.mktemp("serve") / "bf.npz"
    save_checkpoint(path, forecaster.model, epoch=4)
    return SimpleNamespace(
        data=data, forecaster=forecaster, path=path,
        builder=lambda: make_bf(data, BUDGET).model)


def _service(served, key, builder=None):
    service = ForecastService()
    service.register(key, served.path, builder or served.builder)
    return service


def _built_in_float64(builder):
    """``builder`` run under a float64 default (its model stays float64
    when the service later serves it under float32)."""
    def build():
        previous = set_default_dtype(np.float64)
        try:
            return builder()
        finally:
            set_default_dtype(previous)
    return build


class TestModelRegistry:
    def test_unregistered_key_rejected(self):
        registry = ModelRegistry()
        with pytest.raises(ModelUnavailableError, match="not registered"):
            registry.get(ModelKey("nowhere"))

    def test_lazy_load_and_fingerprint_reuse(self, served):
        registry = ModelRegistry()
        key = ModelKey("toy")
        registry.register(key, served.path, served.builder)
        assert registry.loads == 0           # nothing read yet
        first = registry.get(key)
        second = registry.get(key)
        assert first is second               # unchanged file -> same model
        assert registry.stats()["loads"] == 1
        assert first.epoch == 4              # checkpoint metadata surfaced

    def test_corrupt_checkpoint_reported_never_served(self, served,
                                                      tmp_path):
        """A failed SHA-256 check must raise cleanly, count as an error,
        and emit ``model_error`` — serving garbage weights is the one
        unforgivable failure."""
        bad = tmp_path / "bad.npz"
        bad.write_bytes(served.path.read_bytes())
        corrupt_file(bad, seed=0, mode="bitflip", n_bits=16)
        events = []
        registry = ModelRegistry(
            telemetry=lambda event, fields: events.append((event, fields)))
        key = ModelKey("toy", "corrupt")
        registry.register(key, bad, served.builder)
        with pytest.raises(ModelUnavailableError, match="rejected"):
            registry.get(key)
        assert registry.stats()["errors"] == 1
        assert registry.stats()["loaded"] == 0
        kinds = [event for event, _ in events]
        assert kinds == ["model_error"]
        assert str(key) in events[0][1]["key"]

    def test_missing_checkpoint_reported(self, served, tmp_path):
        registry = ModelRegistry()
        key = ModelKey("toy", "missing")
        registry.register(key, tmp_path / "gone.npz", served.builder)
        with pytest.raises(ModelUnavailableError, match="unreadable"):
            registry.get(key)
        assert registry.errors == 1

    def test_hot_reload_on_file_change(self, served, tmp_path):
        """An atomic checkpoint rewrite (new inode) must be picked up on
        the next get, with a ``model_reload`` event."""
        path = tmp_path / "bf.npz"
        path.write_bytes(served.path.read_bytes())
        events = []
        registry = ModelRegistry(
            telemetry=lambda event, fields: events.append(event))
        key = ModelKey("toy", "reload")
        registry.register(key, path, served.builder)
        old = registry.get(key)
        perturbed = served.builder()
        perturbed.load_state_dict(
            {name: value.copy()
             for name, value in old.model.state_dict().items()})
        for parameter in perturbed.parameters():
            parameter.data = parameter.data + 0.01
        save_checkpoint(path, perturbed, epoch=5)
        fresh = registry.get(key)
        assert fresh is not old
        assert fresh.epoch == 5
        assert registry.stats()["reloads"] == 1
        assert events == ["model_load", "model_reload"]

    def test_lru_eviction_under_pressure(self, served):
        events = []
        registry = ModelRegistry(
            ServeConfig(max_models=1),
            telemetry=lambda event, fields: events.append((event, fields)))
        a, b = ModelKey("toy", "a"), ModelKey("toy", "b")
        registry.register(a, served.path, served.builder)
        registry.register(b, served.path, served.builder)
        registry.get(a)
        registry.get(b)                      # evicts a
        registry.get(a)                      # reloads a, evicts b
        stats = registry.stats()
        assert stats["loaded"] == 1
        assert stats["evictions"] == 2
        evicted = [fields["key"] for event, fields in events
                   if event == "model_evict"]
        assert evicted == [str(a), str(b)]


class TestResponseCache:
    def test_lru_bound_and_counters(self):
        cache = ResponseCache(max_entries=2)
        for i in range(3):
            cache.put(("m", str(i), 1), np.full(2, float(i)))
        assert len(cache) == 2
        assert cache.get(("m", "0", 1)) is None          # evicted
        np.testing.assert_array_equal(cache.get(("m", "2", 1)),
                                      np.full(2, 2.0))
        assert cache.stats() == {"entries": 2, "hits": 1, "misses": 1}

    def test_returns_copies_both_ways(self):
        cache = ResponseCache()
        stored = np.zeros(3)
        cache.put(("m", "sig", 1), stored)
        stored += 1.0                        # caller mutates its array
        first = cache.get(("m", "sig", 1))
        first += 2.0                         # caller mutates the answer
        np.testing.assert_array_equal(cache.get(("m", "sig", 1)),
                                      np.zeros(3))

    def test_invalidate_model_drops_only_that_key(self):
        cache = ResponseCache()
        a, b = ModelKey("a"), ModelKey("b")
        cache.put((a, "sig", 1), np.zeros(1))
        cache.put((b, "sig", 1), np.ones(1))
        assert cache.invalidate_model(a) == 1
        assert cache.get((a, "sig", 1)) is None
        assert cache.get((b, "sig", 1)) is not None

    def test_window_signature_is_content_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert window_signature(x) == window_signature(x.copy())
        assert window_signature(x) != window_signature(x.reshape(3, 2))
        assert window_signature(x) != window_signature(
            x.astype(np.float32))


class TestForecastService:
    @pytest.mark.parametrize("case", ["repeat", "horizon-change",
                                      "window-change", "float64-built"])
    def test_served_bit_identical_to_forecast_latest(self, served, case):
        """The acceptance gate: the full stack (registry -> model forward
        -> cache) must not change a single bit of the forecast, cold or
        warm, when one loaded model sees a new horizon, a new window
        shape, or was built under a float64 default and serves under
        float32."""
        key = ModelKey("toy")
        sequence = served.data.sequence
        shorter = sequence.slice(0, sequence.n_intervals - 1)
        builder, forecaster = served.builder, served.forecaster
        if case == "float64-built":
            builder = _built_in_float64(served.builder)
            wide = builder()
            wide.load_state_dict(served.forecaster.model.state_dict())
            forecaster = NeuralForecaster("bf", wide)
        queries = {
            "repeat": [(sequence, S, H), (sequence, S, H)],
            "horizon-change": [(sequence, S, H), (sequence, S, H + 1),
                               (shorter, S, H)],
            "window-change": [(sequence, S, H), (sequence, S + 1, H),
                              (shorter, S, H)],
            "float64-built": [(sequence, S, H), (shorter, S, H)],
        }[case]
        service = _service(served, key, builder)
        for tail, s, horizon in queries:
            direct = forecast_latest(forecaster, tail, s, horizon)
            answer = service.forecast(key, tail, s, horizon)
            assert answer.shape[0] == horizon
            np.testing.assert_array_equal(answer, direct)
        dtypes = {p.data.dtype
                  for p in service.registry.get(key).model.parameters()}
        assert dtypes == {np.dtype(np.float64 if case == "float64-built"
                                   else np.float32)}
        service.close()

    def test_cache_hit_bit_identical_to_cold_forward(self, served):
        key = ModelKey("toy")
        service = _service(served, key)
        request = ForecastRequest(key, served.data.sequence, S, H)
        cold = service.forecast_one(request)
        hit = service.forecast_one(request)
        assert cold.cache == "miss" and hit.cache == "hit"
        np.testing.assert_array_equal(hit.prediction, cold.prediction)
        assert service.cache.stats()["hits"] == 1
        service.close()

    def test_forecast_one_reports_errors(self, served):
        """A window too short for ``s`` and an unknown key come back as
        error responses, not exceptions."""
        key = ModelKey("toy")
        service = _service(served, key)
        sequence = served.data.sequence
        good = service.forecast_one(ForecastRequest(key, sequence, S, H))
        too_short = service.forecast_one(
            ForecastRequest(key, sequence.slice(0, 1), S, H))
        unknown = service.forecast_one(
            ForecastRequest(ModelKey("nowhere"), sequence, S, H))
        assert good.ok and good.prediction is not None
        assert not too_short.ok and "ValueError" in too_short.error
        assert too_short.prediction is None
        assert not unknown.ok and unknown.prediction is None
        service.close()

    def test_hot_reload_never_serves_stale_cache(self, served, tmp_path):
        """Eviction + rewrite: after the checkpoint changes on disk, the
        very next answer must come from the new weights — a cache entry
        from the old instance must not survive the reload."""
        path = tmp_path / "bf.npz"
        path.write_bytes(served.path.read_bytes())
        key = ModelKey("toy", "reload")
        service = ForecastService(ServeConfig())
        service.register(key, path, served.builder)
        sequence = served.data.sequence
        old = service.forecast(key, sequence, S, H)

        perturbed = served.builder()
        loaded = service.registry.get(key)
        perturbed.load_state_dict(
            {name: value.copy()
             for name, value in loaded.model.state_dict().items()})
        for parameter in perturbed.parameters():
            parameter.data = parameter.data + 0.01
        save_checkpoint(path, perturbed, epoch=5)

        response = service.forecast_one(
            ForecastRequest(key, sequence, S, H))
        assert response.cache == "miss"      # old cache entry was dropped
        assert not np.array_equal(response.prediction, old)
        perturbed.eval()
        prediction, _, _ = perturbed(
            sequence.tensors[-S:][None], H)
        np.testing.assert_array_equal(response.prediction,
                                      publish(prediction.numpy()[0]))
        service.close()

    def test_degrades_to_stale_answer_when_model_breaks(self, served,
                                                        tmp_path):
        """Ladder rung 4: checkpoint vanishes mid-flight -> the last
        good answer is served, clearly flagged, and telemetry records
        the degradation."""
        path = tmp_path / "bf.npz"
        path.write_bytes(served.path.read_bytes())
        events = []
        key = ModelKey("toy", "fragile")
        service = ForecastService(
            ServeConfig(),
            telemetry=lambda event, fields: events.append((event, fields)))
        service.register(key, path, served.builder)
        sequence = served.data.sequence
        healthy = service.forecast(key, sequence, S, H)
        path.unlink()                        # deployment loses its file
        response = service.forecast_one(
            ForecastRequest(key, sequence, S, H))
        assert response.ok and response.degraded
        assert response.cache == "stale"
        np.testing.assert_array_equal(response.prediction, healthy)
        degraded = [fields for event, fields in events
                    if event == "serve_request" and fields["degraded"]]
        assert len(degraded) == 1
        service.close()

    def test_stale_ok_false_fails_loudly(self, served, tmp_path):
        path = tmp_path / "bf.npz"
        path.write_bytes(served.path.read_bytes())
        key = ModelKey("toy", "strict")
        service = ForecastService(ServeConfig(stale_ok=False))
        service.register(key, path, served.builder)
        sequence = served.data.sequence
        service.forecast(key, sequence, S, H)
        path.unlink()
        response = service.forecast_one(
            ForecastRequest(key, sequence, S, H))
        assert not response.ok and response.prediction is None
        with pytest.raises(ModelUnavailableError):
            service.forecast(key, sequence, S, H)
        service.close()

    def test_stats_shape(self, served):
        key = ModelKey("toy")
        service = _service(served, key)
        service.forecast(key, served.data.sequence, S, H)
        stats = service.stats()
        assert stats["requests"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["registry"]["loads"] == 1
        assert set(stats) == {"requests", "cache", "registry"}
        service.close()

    def test_removed_options_raise_type_error(self, served):
        """Removed serving options fail loudly instead of being
        silently ignored."""
        assert [f.name for f in dataclasses.fields(ServeConfig)] == \
            ["max_models", "cache_size", "stale_ok"]
        for option, value in [("engine", "eager"), ("batch_window", 0.01),
                              ("max_batch", 4), ("request_timeout", 5.0),
                              ("retries", 3),
                              ("cache_interval_minutes", 15.0)]:
            with pytest.raises(TypeError, match=option):
                ServeConfig(**{option: value})
        with pytest.raises(TypeError, match="interval_minutes"):
            ResponseCache(interval_minutes=15.0)
        # Argument binding fails before any worker is forked.
        with pytest.raises(TypeError, match="affinity"):
            ForecastWorkerPool(ForecastService, n_workers=1,
                               affinity=False)
        with pytest.raises(TypeError, match="ring_slots"):
            ForecastWorkerPool(ForecastService, n_workers=1, ring_slots=2)
        with pytest.raises(TypeError, match="warm"):
            ForecastService().register(ModelKey("toy"), served.path,
                                       served.builder, warm=(S, H))


class TestPublishedForecasts:
    """Models compute in float32 by default; a forecast leaves the
    program as float64 histograms."""

    def test_answers_are_float64_histograms(self, served):
        assert all(p.data.dtype == np.float32
                   for p in served.forecaster.model.parameters())
        key = ModelKey("toy")
        service = _service(served, key)
        sequence = served.data.sequence
        direct = forecast_latest(served.forecaster, sequence, S, H)
        answer = service.forecast(key, sequence, S, H)
        for forecast in (direct, answer):
            assert forecast.dtype == np.float64
            np.testing.assert_allclose(forecast.sum(axis=-1), 1.0,
                                       rtol=0, atol=1e-12)
        np.testing.assert_array_equal(answer, direct)
        service.close()

    def test_float64_checkpoint_loads_and_serves(self, served, tmp_path):
        """A checkpoint written by a float64 model is cast to the
        float32 model it loads into."""
        sequence = served.data.sequence
        path = tmp_path / "bf64.npz"
        previous = set_default_dtype(np.float64)
        try:
            wide = served.builder()
            wide.eval()
            expected = publish(
                wide(sequence.tensors[-S:][None], H)[0].numpy())
            save_checkpoint(path, wide, epoch=1)
        finally:
            set_default_dtype(previous)
        assert all(p.data.dtype == np.float64 for p in wide.parameters())
        key = ModelKey("toy", "float64")
        service = ForecastService()
        service.register(key, path, served.builder)
        answer = service.forecast(key, sequence, S, H)
        loaded = service.registry.get(key).model
        assert all(p.data.dtype == np.float32 for p in loaded.parameters())
        assert answer.dtype == np.float64
        np.testing.assert_allclose(answer.sum(axis=-1), 1.0, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(answer, expected[0], rtol=0, atol=1e-5)
        service.close()


class TestForecastWorkerPool:
    @pytest.fixture()
    def factory(self, served):
        key = ModelKey("toy")
        path, builder = served.path, served.builder

        def service_factory():
            service = ForecastService(ServeConfig())
            service.register(key, path, builder)
            return service

        return key, service_factory

    def test_pool_answers_match_direct_forecast(self, served, factory):
        key, service_factory = factory
        sequence = served.data.sequence
        direct = forecast_latest(served.forecaster, sequence, S, H)
        with ForecastWorkerPool(service_factory, n_workers=1) as pool:
            response = pool.forecast(ForecastRequest(key, sequence, S, H))
            assert response.ok
            np.testing.assert_array_equal(response.prediction, direct)

    def test_dead_worker_respawned_and_request_retried(self, served,
                                                       factory):
        key, service_factory = factory
        sequence = served.data.sequence
        with ForecastWorkerPool(service_factory, n_workers=1,
                                retries=1) as pool:
            first = pool.forecast(ForecastRequest(key, sequence, S, H))
            assert first.ok
            proc, _, _ = pool._workers[0]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)
            second = pool.forecast(ForecastRequest(key, sequence, S, H))
            assert second.ok and not second.degraded
            np.testing.assert_array_equal(second.prediction,
                                          first.prediction)
            stats = pool.stats()
            assert stats["deaths"] >= 1
            assert stats["alive"] == 1

    def test_degrades_to_stale_mirror_when_workers_cannot_answer(
            self, served, factory):
        """Ladder's last rung through the pool: every attempt fails, but
        a previously-served answer exists in the parent's mirror."""
        key, service_factory = factory
        sequence = served.data.sequence
        events = []
        with ForecastWorkerPool(
                service_factory, n_workers=1, retries=0,
                telemetry=lambda event, fields: events.append(event)
                ) as pool:
            healthy = pool.forecast(ForecastRequest(key, sequence, S, H))
            assert healthy.ok
            bad = ForecastRequest(ModelKey("nowhere"), sequence, S, H)
            pool._last[(bad.key, H)] = healthy.prediction.copy()
            response = pool.forecast(bad)
            assert response.ok and response.degraded
            assert response.cache == "stale"
            np.testing.assert_array_equal(response.prediction,
                                          healthy.prediction)
            assert pool.stats()["degraded"] == 1
            assert "serve_degraded" in events

    def test_error_response_when_no_stale_answer_exists(self, served,
                                                        factory):
        key, service_factory = factory
        sequence = served.data.sequence
        with ForecastWorkerPool(service_factory, n_workers=1,
                                retries=0) as pool:
            response = pool.forecast(
                ForecastRequest(ModelKey("nowhere"), sequence, S, H))
            assert not response.ok
            assert response.prediction is None

    def test_timeout_kills_and_respawns_worker(self, served, factory):
        """A hung worker must not hang the parent: the request times
        out, the worker is replaced, and the pool keeps serving."""
        key, service_factory = factory
        sequence = served.data.sequence
        with ForecastWorkerPool(service_factory, n_workers=1,
                                request_timeout=0.2, retries=0) as pool:
            proc, _, _ = pool._workers[0]
            os.kill(proc.pid, signal.SIGSTOP)   # simulate a hang
            start = time.monotonic()
            response = pool.forecast(
                ForecastRequest(key, sequence, S, H))
            elapsed = time.monotonic() - start
            assert not proc.is_alive()         # SIGKILL beat the SIGSTOP
            assert elapsed < 5.0
            assert pool.stats()["timeouts"] == 1
            assert not response.ok             # nothing mirrored yet
            retry = pool.forecast(ForecastRequest(key, sequence, S, H))
            assert retry.ok                    # respawned worker answers

    def test_closed_pool_rejects_requests(self, served, factory):
        key, service_factory = factory
        pool = ForecastWorkerPool(service_factory, n_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.forecast(
                ForecastRequest(key, served.data.sequence, S, H))


class TestResponseDataclass:
    def test_ok_property(self):
        good = ForecastResponse(ModelKey("a"), H, np.zeros(1))
        bad = ForecastResponse(ModelKey("a"), H, None, error="boom")
        assert good.ok and not bad.ok


class TestWorkerAffinity:
    """Per-key worker affinity: one key's requests land on one worker
    so its registry and cache stay hot for the keys it owns."""

    def _pool(self, n_workers=4):
        pool = ForecastWorkerPool.__new__(ForecastWorkerPool)
        pool._workers = [None] * n_workers
        return pool

    def test_slot_stable_per_key_and_process_independent(self):
        import zlib
        pool = self._pool()
        for key in (ModelKey("nyc"), ModelKey("cd", "weekday")):
            expected = zlib.crc32(str(key).encode()) % 4
            assert all(pool._slot_for(key, 0) == expected
                       for _ in range(5))

    def test_retries_walk_to_neighbouring_slots(self):
        pool = self._pool()
        key = ModelKey("nyc")
        base = pool._slot_for(key, 0)
        assert pool._slot_for(key, 1) == (base + 1) % 4
        assert pool._slot_for(key, 2) == (base + 2) % 4

    def test_pool_with_affinity_serves_correctly(self, served):
        key = ModelKey("toy")
        path, builder = served.path, served.builder

        def service_factory():
            service = ForecastService(ServeConfig())
            service.register(key, path, builder)
            return service

        sequence = served.data.sequence
        direct = forecast_latest(served.forecaster, sequence, S, H)
        with ForecastWorkerPool(service_factory, n_workers=2) as pool:
            slots = {pool._slot_for(key, 0) for _ in range(4)}
            assert len(slots) == 1                # one owner worker
            response = pool.forecast(ForecastRequest(key, sequence, S, H))
            assert response.ok
            np.testing.assert_array_equal(response.prediction, direct)


class TestShmTransport:
    """The zero-copy data plane: array bytes travel through a per-worker
    shared-memory ring, the pipe carries only control frames, and every
    answer is bit-identical to the pickled transport."""

    def _factory(self, served, key):
        path, builder = served.path, served.builder

        def service_factory():
            service = ForecastService(ServeConfig())
            service.register(key, path, builder)
            return service

        return service_factory

    def test_shm_answer_bit_identical_to_direct_and_pickle(self, served):
        key = ModelKey("toy")
        factory = self._factory(served, key)
        sequence = served.data.sequence
        direct = forecast_latest(served.forecaster, sequence, S, H)
        request = ForecastRequest(key, sequence, S, H)
        with ForecastWorkerPool(factory, n_workers=1) as shm_pool:
            assert shm_pool.transport == "shm"
            via_shm = shm_pool.forecast(request)
            assert via_shm.ok and shm_pool.transport_fallbacks == 0
        with ForecastWorkerPool(factory, n_workers=1,
                                transport="pickle") as pickle_pool:
            assert pickle_pool.segment_names() == []
            via_pickle = pickle_pool.forecast(request)
            assert via_pickle.ok
        np.testing.assert_array_equal(via_shm.prediction, direct)
        np.testing.assert_array_equal(via_pickle.prediction, direct)

    def test_oversized_payload_falls_back_to_pickle(self, served):
        """A payload bigger than the largest slot must still be served
        (bit-identically) over the pickled pipe, with a one-shot
        warning, a counter, and a transport_fallback event."""
        key = ModelKey("toy")
        events = []
        pool = ForecastWorkerPool(
            self._factory(served, key), n_workers=1, slot_bytes=1024,
            telemetry=lambda event, fields: events.append((event, fields)))
        try:
            direct = forecast_latest(served.forecaster,
                                     served.data.sequence, S, H)
            request = ForecastRequest(key, served.data.sequence, S, H)
            with pytest.warns(TransportFallbackWarning,
                              match="fell back"):
                response = pool.forecast(request)
            assert response.ok
            np.testing.assert_array_equal(response.prediction, direct)
            assert pool.transport_fallbacks >= 1
            fallbacks = [fields for event, fields in events
                         if event == "transport_fallback"]
            assert fallbacks and "SlotOverflowError" in \
                fallbacks[0]["reason"]
            # The warning is one-shot: the second oversized request is
            # counted but silent.
            before = pool.transport_fallbacks
            response = pool.forecast(request)
            assert response.ok
            assert pool.transport_fallbacks > before
        finally:
            pool.close()

    def test_response_overflow_falls_back_to_pickle(self, served):
        """A worker whose histogram outgrew the slot answers over the
        pipe instead; the parent counts the response-direction
        fallback."""
        key = ModelKey("toy")

        class _HugeAnswerService:
            def forecast_one(self, request):
                return ForecastResponse(
                    request.key, request.horizon,
                    np.zeros((64, 64, 64)))       # 2 MiB > slot

        events = []
        pool = ForecastWorkerPool(
            _HugeAnswerService, n_workers=1, slot_bytes=1 << 20,
            telemetry=lambda event, fields: events.append((event, fields)))
        try:
            with pytest.warns(TransportFallbackWarning):
                response = pool.forecast(
                    ForecastRequest(key, served.data.sequence, S, H))
            assert response.ok
            assert response.prediction.shape == (64, 64, 64)
            directions = [fields["direction"]
                          for event, fields in events
                          if event == "transport_fallback"]
            assert "response" in directions
        finally:
            pool.close()

    def test_invalid_transport_rejected(self, served):
        with pytest.raises(ValueError, match="transport"):
            ForecastWorkerPool(self._factory(served, ModelKey("toy")),
                               n_workers=1, transport="tcp")

    def test_respawn_unlinks_dead_workers_segment(self, served):
        """Regression: a SIGKILLed worker never runs its cleanup, so
        the parent must unlink the dead worker's segment before forking
        the replacement — one leak per respawn would eventually exhaust
        /dev/shm."""
        key = ModelKey("toy")
        pool = ForecastWorkerPool(self._factory(served, key), n_workers=1)
        try:
            names = [pool.segment_names()[0]]
            request = ForecastRequest(key, served.data.sequence, S, H)
            assert pool.forecast(request).ok
            for _ in range(2):                   # two kill/respawn cycles
                proc, _, _ = pool._workers[0]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5.0)
                response = pool.forecast(request)
                assert response.ok
                fresh = pool.segment_names()[0]
                assert fresh not in names        # a new segment each time
                assert leaked_segments(names) == []
                names.append(fresh)
        finally:
            pool.close()
        assert leaked_segments(names) == []      # close unlinked the last

    def test_graceful_close_leaves_no_segments(self, served):
        pool = ForecastWorkerPool(self._factory(served, ModelKey("toy")),
                                  n_workers=2)
        names = pool.segment_names()
        assert len(names) == 2
        pool.close()
        assert leaked_segments(names) == []


class TestBackpressure:
    """Deadline-aware admission control: overload answers "no" in
    microseconds (ShedError) instead of "late" in seconds, and a shed
    consumes no retry, kills no worker, and serves no stale answer."""

    def _pool(self, served, key, telemetry=None, **kwargs):
        path, builder = served.path, served.builder

        def service_factory():
            service = ForecastService(ServeConfig())
            service.register(key, path, builder)
            return service

        return ForecastWorkerPool(service_factory, n_workers=1,
                                  telemetry=telemetry, **kwargs)

    def test_ladder_order_cache_then_shm_then_fallback(self, served):
        """Rungs 1-3 in order: the worker's response cache answers
        first; a miss runs the shm forward; only an oversized payload
        drops to the pickled pipe."""
        key = ModelKey("toy")
        with self._pool(served, key) as pool:
            request = ForecastRequest(key, served.data.sequence, S, H)
            miss = pool.forecast(request)
            hit = pool.forecast(request)
            assert miss.cache == "miss"          # rung 2: shm forward
            assert hit.cache == "hit"            # rung 1 outranks it
            assert pool.transport_fallbacks == 0  # rung 3 never needed
            np.testing.assert_array_equal(hit.prediction, miss.prediction)

    def test_queue_full_sheds_without_consuming_retry(self, served):
        """A shed must not walk the retry ring, kill a worker, or serve
        stale — and the pool must serve normally right after."""
        key = ModelKey("toy")
        events = []
        pool = self._pool(
            served, key, retries=2, max_inflight=1,
            telemetry=lambda event, fields: events.append((event, fields)))
        try:
            request = ForecastRequest(key, served.data.sequence, S, H)
            assert pool.forecast(request).ok     # a mirrorable answer
            owner = pool._slot_for(key, 0)
            pool._admission._inflight[owner] = 1  # queue artificially full
            with pytest.raises(ShedError, match="queue full"):
                pool.forecast(request)
            pool._admission._inflight[owner] = 0
            stats = pool.stats()
            assert stats["sheds"] == 1
            assert stats["deaths"] == 0          # no worker touched
            assert stats["timeouts"] == 0
            assert stats["queue"]["shed_full"] == 1
            shed_events = [fields for event, fields in events
                           if event == "serve_shed"]
            assert len(shed_events) == 1
            assert "queue full" in shed_events[0]["reason"]
            assert pool.forecast(request).ok     # healthy afterwards
        finally:
            pool.close()

    def test_passed_deadline_sheds_fast(self, served):
        key = ModelKey("toy")
        with self._pool(served, key) as pool:
            request = ForecastRequest(key, served.data.sequence, S, H)
            assert pool.forecast(request).ok     # prime EWMA + mirror
            late = ForecastRequest(key, served.data.sequence, S, H,
                                   deadline=time.monotonic() - 1.0)
            start = time.monotonic()
            with pytest.raises(ShedError, match="deadline passed"):
                pool.forecast(late)
            assert time.monotonic() - start < 0.05   # fast-fail
            assert pool.stats()["queue"]["shed_deadline"] == 1

    def test_unmeetable_deadline_sheds_via_ewma(self, served):
        key = ModelKey("toy")
        with self._pool(served, key) as pool:
            sequence = served.data.sequence
            request = ForecastRequest(key, sequence, S, H)
            assert pool.forecast(request).ok     # cold: loads the model
            assert pool.forecast(ForecastRequest(
                key, sequence.slice(0, sequence.n_intervals - 1), S,
                H)).ok                           # a warm miss primes it
            assert pool._admission.ewma_seconds is not None
            pool._admission.ewma_seconds = 10.0   # pin: 10s per forward
            tight = ForecastRequest(
                key, served.data.sequence, S, H,
                deadline=time.monotonic() + 1.0)  # < one projected forward
            with pytest.raises(ShedError, match="unmeetable"):
                pool.forecast(tight)

    def test_cold_forward_does_not_shed_short_deadlines(self, served):
        """The first forward loads the model, far slower than a warm
        one.  Folded into the EWMA it would shed
        every short-deadline request after it, and a shed request never
        forwards to correct the estimate."""
        key = ModelKey("toy")
        path, builder = served.path, served.builder

        def slow_builder():
            time.sleep(0.3)                      # a slow model load
            return builder()

        def service_factory():
            service = ForecastService(ServeConfig())
            service.register(key, path, slow_builder)
            return service

        with ForecastWorkerPool(service_factory, n_workers=1) as pool:
            sequence = served.data.sequence
            cold = pool.forecast(ForecastRequest(key, sequence, S, H))
            assert cold.ok and cold.cold
            assert pool._admission.ewma_seconds is None
            for end in range(sequence.n_intervals - 5, sequence.n_intervals):
                response = pool.forecast(ForecastRequest(
                    key, sequence.slice(0, end), S, H,
                    deadline=time.monotonic() + 0.150))
                assert response.ok and not response.degraded
                assert response.cache == "miss" and not response.cold
            assert pool.stats()["sheds"] == 0
            assert pool._admission.ewma_seconds < 0.150

    def test_generous_deadline_is_served(self, served):
        key = ModelKey("toy")
        with self._pool(served, key) as pool:
            response = pool.forecast(ForecastRequest(
                key, served.data.sequence, S, H,
                deadline=time.monotonic() + 60.0))
            assert response.ok and not response.degraded

    def test_worker_refuses_expired_in_flight_deadline(self, served):
        """A deadline that expires between admission and the worker's
        recv must not start a doomed forward."""
        from repro.serve import _serve_request

        class _NeverCalled:
            def forecast_one(self, request):     # pragma: no cover
                raise AssertionError("forward ran past its deadline")

        request = ForecastRequest(ModelKey("toy"), served.data.sequence,
                                  S, H, deadline=time.monotonic() - 0.1)
        response = _serve_request(_NeverCalled(), request)
        assert not response.ok
        assert "DeadlineExceeded" in response.error
