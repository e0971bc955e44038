"""Tests for the per-op profiler (:func:`repro.autodiff.profile`)."""

import numpy as np

from repro.autodiff import Tensor, ops, profile


class TestProfiler:
    def test_profile_counts_forward_and_backward(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with profile() as profiler:
            loss = ops.sigmoid(x).sum()
            loss.backward()
        stats = profiler.as_dict()
        assert stats["sigmoid"]["forward_calls"] == 1
        assert stats["sigmoid"]["backward_calls"] == 1
        assert stats["sigmoid"]["forward_seconds"] >= 0.0
        assert "sum" in stats
        table = profiler.format_table()
        assert "sigmoid" in table and "fwd calls" in table

    def test_profile_restores_previous_and_emits_telemetry(self):
        events = []
        with profile(telemetry=lambda event, fields: events.append(
                (event, fields))):
            Tensor(np.ones(2), requires_grad=True).sum().backward()
        # A fresh op after the block must not be recorded anywhere.
        Tensor(np.ones(2), requires_grad=True).sum().backward()
        assert len(events) == 1
        event, fields = events[0]
        assert event == "profile"
        assert fields["total_seconds"] >= 0.0
        assert "sum" in fields["ops"]
