"""Tests for model/sequence/result serialization."""

import json

import numpy as np
import pytest

from repro.baselines import FCBaseline
from repro.core import BasicFramework
from repro.persistence import (export_comparison, load_model, load_sequence,
                               save_model, save_sequence)


class TestModelRoundTrip:
    def test_bf_round_trip(self, tmp_path, rng):
        model = BasicFramework(5, 5, 3, rng, rank=2, encoder_dim=4,
                               hidden_dim=6)
        path = tmp_path / "bf.npz"
        save_model(model, path)

        clone = BasicFramework(5, 5, 3, np.random.default_rng(99), rank=2,
                               encoder_dim=4, hidden_dim=6)
        load_model(clone, path)
        history = rng.uniform(size=(2, 3, 5, 5, 3))
        model.eval(), clone.eval()
        assert np.allclose(model(history, 1)[0].numpy(),
                           clone(history, 1)[0].numpy())

    def test_architecture_mismatch_raises(self, tmp_path, rng):
        model = FCBaseline(5, 5, 3, rng, encoder_dim=4, hidden_dim=6)
        path = tmp_path / "fc.npz"
        save_model(model, path)
        wrong = FCBaseline(5, 5, 3, rng, encoder_dim=8, hidden_dim=6)
        with pytest.raises(ValueError):
            load_model(wrong, path)


class TestSequenceRoundTrip:
    def test_round_trip(self, tmp_path, sequence):
        path = tmp_path / "seq.npz"
        save_sequence(sequence, path)
        loaded = load_sequence(path)
        assert loaded.tensors.shape == sequence.tensors.shape
        assert np.allclose(loaded.tensors, sequence.tensors, atol=1e-6)
        assert np.array_equal(loaded.mask, sequence.mask)
        assert loaded.spec.edges == sequence.spec.edges
        assert loaded.interval_minutes == sequence.interval_minutes

    def test_loaded_sequence_usable(self, tmp_path, sequence):
        from repro.histograms import WindowDataset
        path = tmp_path / "seq.npz"
        save_sequence(sequence, path)
        loaded = load_sequence(path)
        windows = WindowDataset(loaded, s=3, h=1)
        assert len(windows) > 0

    def test_histograms_renormalized_after_float32_round_trip(
            self, tmp_path, sequence):
        """The float32 storage quantizes cells; load must restore the
        sum-to-one histogram invariant exactly (empty cells stay zero)."""
        path = tmp_path / "seq.npz"
        save_sequence(sequence, path)
        loaded = load_sequence(path)
        sums = loaded.tensors.sum(axis=-1)
        observed = sums > 0
        assert observed.any()
        assert np.abs(sums[observed] - 1.0).max() < 1e-12
        # Empty cells must remain exactly empty, not become NaN.
        original_empty = sequence.tensors.sum(axis=-1) == 0
        assert np.all(sums[original_empty] == 0.0)
        assert np.isfinite(loaded.tensors).all()


class TestComparisonExport:
    def test_round_trip(self, tmp_path, dataset):
        from repro.experiments import (MethodBudget, make_nh, prepare,
                                       run_comparison)
        data = prepare(dataset, s=3, h=2)
        result = run_comparison(data, {"nh": make_nh},
                                max_test_windows=4)
        path = tmp_path / "result.json"
        export_comparison(result, path)
        rows = json.loads(path.read_text())["rows"]
        assert len(rows) == 2
        assert rows[0]["method"] == "nh"
        assert np.isfinite(rows[0]["emd"])


class TestAFModelRoundTrip:
    def test_af_round_trip(self, tmp_path, rng, proximity):
        from repro.core import AdvancedFramework, GCNNBlock
        kwargs = dict(n_buckets=3, rank=2,
                      blocks=[GCNNBlock(4, 2, 1)], rnn_hidden=4,
                      rnn_order=2)
        model = AdvancedFramework(proximity, proximity,
                                  rng=np.random.default_rng(1), **kwargs)
        path = tmp_path / "af.npz"
        save_model(model, path)
        clone = AdvancedFramework(proximity, proximity,
                                  rng=np.random.default_rng(2), **kwargs)
        load_model(clone, path)
        history = rng.uniform(size=(1, 3, len(proximity),
                                    len(proximity), 3))
        model.eval(), clone.eval()
        assert np.allclose(model(history, 1)[0].numpy(),
                           clone(history, 1)[0].numpy())

    def test_npz_file_is_plain_numpy(self, tmp_path, rng):
        """Artifacts must be readable without this library."""
        from repro.baselines import FCBaseline
        model = FCBaseline(4, 4, 3, rng, encoder_dim=4, hidden_dim=4)
        path = tmp_path / "fc.npz"
        save_model(model, path)
        with np.load(path) as archive:
            assert "encode.weight" in archive.files
            assert archive["encode.weight"].shape == (48, 4)
