"""Property-based tests on the core framework components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autodiff import Tensor
from repro.core import masked_frobenius, recover

factor_floats = st.floats(min_value=-3, max_value=3,
                          allow_nan=False, allow_infinity=False)


class TestRecoverProperties:
    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, (4, 2, 3), elements=factor_floats),
           arrays(np.float64, (2, 5, 3), elements=factor_floats))
    def test_always_valid_histograms(self, r, c):
        out = recover(Tensor(r), Tensor(c)).numpy()
        assert out.shape == (4, 5, 3)
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out > 0).all()

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (3, 2, 2), elements=factor_floats),
           arrays(np.float64, (2, 3, 2), elements=factor_floats),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_invariant_to_uniform_score_shift(self, r, c, shift):
        """Adding a constant to all raw scores (here via an offset in
        one rank component of both factors) does not change softmax
        output — recover is shift-invariant like any softmax."""
        base = recover(Tensor(r), Tensor(c)).numpy()
        # Constant shift of the pre-softmax scores: append a rank-1
        # component u*v with u=shift, v=1 -> adds `shift` everywhere.
        ones_r = np.full((3, 1, 2), shift)
        ones_c = np.ones((1, 3, 2))
        r2 = np.concatenate([r, ones_r], axis=1)
        c2 = np.concatenate([c, ones_c], axis=0)
        shifted = recover(Tensor(r2), Tensor(c2)).numpy()
        assert np.allclose(base, shifted, atol=1e-9)


class TestMaskedLossProperties:
    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (2, 1, 3, 3, 2),
                  elements=st.floats(min_value=0, max_value=1,
                                     allow_nan=False)),
           arrays(np.float64, (2, 1, 3, 3, 2),
                  elements=st.floats(min_value=0, max_value=1,
                                     allow_nan=False)),
           arrays(np.bool_, (2, 1, 3, 3)))
    def test_nonnegative_and_zero_iff_match(self, pred, truth, mask):
        loss = masked_frobenius(Tensor(pred), truth, mask).item()
        assert loss >= 0.0
        matched = masked_frobenius(Tensor(truth), truth, mask).item()
        assert matched == 0.0

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (1, 1, 2, 2, 3),
                  elements=st.floats(min_value=0, max_value=1,
                                     allow_nan=False)))
    def test_monotone_in_mask(self, pred):
        """Observing more cells can only add error terms (per-cell mean
        stays bounded by the max per-cell error)."""
        truth = np.zeros_like(pred)
        empty = np.zeros((1, 1, 2, 2), dtype=bool)
        some = empty.copy()
        some[0, 0, 0, 0] = True
        full = np.ones((1, 1, 2, 2), dtype=bool)
        loss_none = masked_frobenius(Tensor(pred), truth, empty).item()
        loss_some = masked_frobenius(Tensor(pred), truth, some).item()
        loss_full = masked_frobenius(Tensor(pred), truth, full).item()
        assert loss_none == 0.0
        assert loss_some >= 0.0 and loss_full >= 0.0


class TestGRUStateProperties:
    @settings(max_examples=15, deadline=None)
    @given(arrays(np.float64, (1, 6, 3),
                  elements=st.floats(min_value=-10, max_value=10,
                                     allow_nan=False)))
    def test_gru_states_bounded(self, sequence):
        from repro.autodiff import GRUCell
        cell = GRUCell(3, 4, np.random.default_rng(0))
        state = cell.initial_state(1)
        for t in range(sequence.shape[1]):
            state = cell(Tensor(sequence[:, t]), state)
            assert np.abs(state.numpy()).max() <= 1.0 + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(arrays(np.float64, (1, 4, 8, 2),
                  elements=st.floats(min_value=-5, max_value=5,
                                     allow_nan=False)))
    def test_cnrnn_states_bounded(self, sequence):
        from repro.core import GraphSeq2Seq
        from repro.graph import build_proximity
        rng = np.random.default_rng(1)
        weights = build_proximity(rng.uniform(0, 4, size=(8, 2)))
        model = GraphSeq2Seq(weights, 2, 3, 2, order=2,
                             rng=np.random.default_rng(2))
        out = model(Tensor(sequence), horizon=2)
        assert np.isfinite(out.numpy()).all()
