"""Tests for optimizers and the learning-rate schedule."""

import numpy as np
import pytest

from repro.autodiff import Adam, StepDecay, Tensor, clip_grad_norm
from repro.autodiff.module import Parameter


def _quadratic_param(start):
    return Parameter(np.array(start, dtype=np.float64))


def _step(param, optimizer):
    loss = ((param - 3.0) ** 2).sum()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return loss.item()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = _quadratic_param([0.0, 10.0])
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            _step(p, opt)
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_bias_correction_first_step_size(self):
        # With bias correction the very first Adam step is ~lr regardless
        # of gradient scale.
        for scale in (1e-3, 1e3):
            p = Parameter(np.array([0.0]))
            opt = Adam([p], lr=0.1)
            loss = (p * scale).sum()
            loss.backward()
            opt.step()
            assert abs(p.data[0]) == pytest.approx(0.1, rel=1e-3)

    def test_weight_decay(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        loss = (p * 0.0).sum()
        loss.backward()
        opt.step()
        assert p.data[0] < 5.0

    def test_skips_gradless_params(self):
        p, q = _quadratic_param([0.0]), _quadratic_param([5.0])
        opt = Adam([p, q], lr=0.1)
        _step(p, opt)
        assert q.data[0] == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        norm = clip_grad_norm([p], 10.0)
        assert norm == pytest.approx(0.5)
        assert p.grad[0] == pytest.approx(0.5)

    def test_clips_to_max_norm(self):
        p = Parameter(np.array([1.0, 1.0]))
        p.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.sqrt((p.grad ** 2).sum()) == pytest.approx(1.0)

    def test_multi_param_global_norm(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        clip_grad_norm([a, b], 1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)


class TestStepDecay:
    def test_paper_schedule(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1e-3)
        sched = StepDecay(opt, factor=0.8, every=5)
        lrs = [sched.step() for _ in range(12)]
        assert lrs[3] == pytest.approx(1e-3)        # epochs 1-4 unchanged
        assert lrs[4] == pytest.approx(0.8e-3)      # epoch 5: x0.8
        assert lrs[9] == pytest.approx(0.64e-3)     # epoch 10: x0.8^2
        assert sched.epoch == 12

    def test_min_lr_floor(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1e-3)
        sched = StepDecay(opt, factor=0.1, every=1, min_lr=1e-5)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(1e-5)
