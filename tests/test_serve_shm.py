"""Tests for the shared-memory serving transport (``repro.serve_shm``).

The transport contract: array bytes written into a ring slot come back
bit-identical (dtype, shape, contents) on the other side; payloads that
do not fit raise :class:`SlotOverflowError` (the pool's cue to fall
back to the pickled pipe); admission control sheds with
:class:`ShedError` when a queue is full or a deadline cannot be met;
and no segment outlives its ring.
"""

import numpy as np
import pytest

from repro.serve_shm import (AdmissionController, HEADER_BYTES, ShedError,
                             ShmRing, SlotOverflowError, leaked_segments,
                             shared_memory_available, slot_bytes_for)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable")


@pytest.fixture()
def ring():
    ring = ShmRing(slot_bytes=1 << 16)
    yield ring
    ring.close()
    ring.unlink()


class TestShmRing:
    def test_round_trip_bit_identical_across_dtypes(self, ring):
        arrays = [
            np.arange(24, dtype=np.float64).reshape(2, 3, 4) * np.pi,
            np.array([[True, False], [False, True]]),
            np.arange(6, dtype=np.int64).reshape(3, 2),
            np.linspace(0, 1, 5, dtype=np.float32),
        ]
        ring.write(arrays, request_id=7, deadline=123.5)
        got, deadline = ring.read(request_id=7)
        assert deadline == 123.5
        assert len(got) == len(arrays)
        for sent, received in zip(arrays, got):
            assert received.dtype == sent.dtype
            assert received.shape == sent.shape
            np.testing.assert_array_equal(received, sent)

    def test_none_deadline_survives(self, ring):
        ring.write([np.zeros(3)], request_id=1)
        _, deadline = ring.read(request_id=1)
        assert deadline is None

    def test_request_id_mismatch_rejected(self, ring):
        """A slot holding another request's frame must never be read as
        ours — that is how a stale response would corrupt an answer."""
        ring.write([np.zeros(2)], request_id=5)
        with pytest.raises(ValueError, match="holds request 5"):
            ring.read(request_id=6)

    def test_unwritten_slot_rejected(self, ring):
        with pytest.raises(ValueError, match="bad magic"):
            ring.read(request_id=1)

    def test_overflow_raises_before_writing(self, ring):
        big = np.zeros((1 << 16) // 8 + 1, dtype=np.float64)
        with pytest.raises(SlotOverflowError, match="exceeds slot_bytes"):
            ring.write([big], request_id=1)

    def test_non_contiguous_input_round_trips(self, ring):
        base = np.arange(40, dtype=np.float64).reshape(8, 5)
        strided = base[::2, 1:4]                   # non-contiguous view
        ring.write([strided], request_id=3)
        got, _ = ring.read(request_id=3)
        np.testing.assert_array_equal(got[0], strided)

    def test_zero_copy_read_views_segment(self, ring):
        ring.write([np.arange(4.0)], request_id=1)
        views, _ = ring.read(request_id=1, copy=False)
        assert not views[0].flags.owndata          # a view, not a copy
        np.testing.assert_array_equal(views[0], np.arange(4.0))
        del views                                  # release before close

    def test_close_unlink_removes_segment(self):
        ring = ShmRing(slot_bytes=4096)
        name = ring.name
        assert leaked_segments([name]) == [name]
        ring.close()
        ring.unlink()
        assert leaked_segments([name]) == []
        ring.unlink()                              # double unlink is safe

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="slot_bytes"):
            ShmRing(slot_bytes=HEADER_BYTES)

    def test_slot_bytes_for_fits_exactly(self):
        shapes = [(4, 8, 8, 5), (4, 8, 8), (4, 8, 8)]
        dtypes = [np.float64, np.bool_, np.int64]
        size = slot_bytes_for(shapes, dtypes)
        ring = ShmRing(slot_bytes=size)
        try:
            arrays = [np.zeros(s, dtype=d) for s, d in zip(shapes, dtypes)]
            ring.write(arrays, request_id=1)    # must fit
        finally:
            ring.close()
            ring.unlink()


class TestAdmissionController:
    def test_queue_full_sheds(self):
        control = AdmissionController(n_slots=1, max_inflight=2)
        control.admit(0, "k")
        control.admit(0, "k")
        with pytest.raises(ShedError, match="queue full"):
            control.admit(0, "k")
        assert control.stats()["shed_full"] == 1
        control.done(0)
        control.admit(0, "k")                      # space again

    def test_slots_have_independent_queues(self):
        control = AdmissionController(n_slots=2, max_inflight=1)
        control.admit(0, "k")
        control.admit(1, "k")                      # other worker is free
        with pytest.raises(ShedError, match="queue full"):
            control.admit(0, "k")

    def test_passed_deadline_sheds(self):
        control = AdmissionController(n_slots=1)
        with pytest.raises(ShedError, match="deadline passed"):
            control.admit(0, "k", deadline=100.0, now=100.5)
        assert control.stats()["shed_deadline"] == 1

    def test_unmeetable_deadline_sheds_via_ewma(self):
        """now + (depth + 1) * EWMA past the deadline -> fast-fail."""
        control = AdmissionController(n_slots=1, max_inflight=8)
        control.admit(0, "k")
        control.done(0, forward_seconds=1.0)       # EWMA = 1s/forward
        control.admit(0, "k")                      # one in flight
        with pytest.raises(ShedError, match="unmeetable"):
            control.admit(0, "k", deadline=101.0, now=100.0)
        assert control.stats()["shed_deadline"] == 1

    def test_feasible_deadline_admitted(self):
        control = AdmissionController(n_slots=1)
        control.admit(0, "k")
        control.done(0, forward_seconds=0.01)
        depth, _ = control.admit(0, "k", deadline=101.0, now=100.0)
        assert depth == 1

    def test_no_ewma_means_no_feasibility_shed(self):
        """Before the first forward there is no latency estimate: only
        an already-passed deadline can shed."""
        control = AdmissionController(n_slots=1)
        depth, _ = control.admit(0, "k", deadline=100.0 + 1e-9, now=100.0)
        assert depth == 1

    def test_ewma_update_rule(self):
        control = AdmissionController(n_slots=1, alpha=0.5)
        control.admit(0, "k")
        control.done(0, forward_seconds=1.0)
        assert control.ewma_seconds == 1.0
        control.admit(0, "k")
        control.done(0, forward_seconds=2.0)
        assert control.ewma_seconds == pytest.approx(1.5)

    def test_cache_hits_do_not_move_ewma(self):
        """done() without a sample (a cache hit) releases the token but
        leaves the forward-latency estimate untouched."""
        control = AdmissionController(n_slots=1)
        control.admit(0, "k")
        control.done(0, forward_seconds=1.0)
        control.admit(0, "k")
        control.done(0)                            # hit: no sample
        assert control.ewma_seconds == 1.0

    def test_high_water_mark_tracked(self):
        control = AdmissionController(n_slots=1)
        _, first = control.admit(0, "k")
        _, second = control.admit(0, "k")
        assert first and second                    # 1 then 2, both records
        control.done(0)
        _, third = control.admit(0, "k")           # back to 2: no record
        assert not third
        assert control.stats()["high_water"] == [2]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionController(n_slots=1, max_inflight=0)
        with pytest.raises(ValueError, match="alpha"):
            AdmissionController(n_slots=1, alpha=0.0)
        with pytest.raises(ValueError, match="n_slots"):
            AdmissionController(n_slots=0)

    def test_shed_error_carries_key_and_reason(self):
        error = ShedError("cd/weekday", "queue full (8/8 in flight)")
        assert error.key == "cd/weekday"
        assert "queue full" in error.reason
        assert "cd/weekday" in str(error)
