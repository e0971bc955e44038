"""Tests for block-sparse OD tensor storage
(``repro.histograms.blocksparse``).

The storage contract: ``from_dense``/``to_dense`` round-trips
bit-identically, ``build_block_sparse_od_tensors`` aggregates trips to
the same cell values as the dense builder, and
``BlockSparseWindowDataset`` yields batches bit-identical to
``WindowDataset`` under the same shuffle RNG.
"""

import numpy as np
import pytest

from repro.histograms import (BlockSparseODTensor,
                              BlockSparseWindowDataset, WindowDataset,
                              build_block_sparse_od_tensors)
from repro.graph import plan_shards


def _blocks(n=12):
    return [np.arange(0, 5), np.arange(5, 9), np.arange(9, n)]


@pytest.fixture(scope="module")
def sparse(sequence):
    return BlockSparseODTensor.from_dense(sequence, _blocks(), _blocks())


class TestRoundTrip:
    def test_to_dense_is_bit_identical(self, sparse, sequence):
        dense = sparse.to_dense()
        np.testing.assert_array_equal(dense.tensors, sequence.tensors)
        np.testing.assert_array_equal(dense.mask, sequence.mask)
        np.testing.assert_array_equal(dense.counts, sequence.counts)
        assert dense.mask.dtype == np.bool_

    def test_shape_and_spec_preserved(self, sparse, sequence):
        assert sparse.shape == (sequence.n_intervals,
                                sequence.n_origins,
                                sequence.n_destinations,
                                sequence.n_buckets)
        assert sparse.spec is sequence.spec
        assert sparse.interval_minutes == sequence.interval_minutes

    def test_empty_blocks_are_dropped(self, sparse):
        assert sparse.n_occupied <= sparse.n_block_rows \
            * sparse.n_block_cols
        for key, payload in sparse.blocks.items():
            assert sparse.mask_blocks[key].any(), key
            assert np.isfinite(payload).all()

    def test_shard_plan_blocks_work_as_partition(self, sequence,
                                                 proximity):
        plan = plan_shards(proximity, n_shards=3, hops=1)
        sparse = BlockSparseODTensor.from_dense(
            sequence, plan.row_blocks(), plan.col_blocks())
        np.testing.assert_array_equal(sparse.to_dense().tensors,
                                      sequence.tensors)


class TestBuilder:
    def test_bit_identical_to_dense_builder(self, dataset, sequence):
        sparse = build_block_sparse_od_tensors(
            dataset.trips, dataset.city, _blocks(),
            n_intervals=dataset.field.n_intervals)
        dense = sparse.to_dense()
        np.testing.assert_array_equal(dense.tensors, sequence.tensors)
        np.testing.assert_array_equal(dense.mask, sequence.mask)
        np.testing.assert_array_equal(dense.counts, sequence.counts)

    def test_min_trips_thresholding_matches_mask(self, dataset):
        sparse = build_block_sparse_od_tensors(
            dataset.trips, dataset.city, _blocks(),
            n_intervals=dataset.field.n_intervals, min_trips=2)
        for key, counts in sparse.count_blocks.items():
            mask = sparse.mask_blocks[key]
            np.testing.assert_array_equal(mask, counts >= 2)
            sums = sparse.blocks[key].sum(axis=-1)
            assert (sums[~mask] == 0).all()

    def test_invalid_partition_rejected(self, dataset):
        overlapping = [np.arange(0, 6), np.arange(5, 12)]
        with pytest.raises(ValueError, match="row_blocks"):
            build_block_sparse_od_tensors(
                dataset.trips, dataset.city, overlapping,
                n_intervals=dataset.field.n_intervals)
        incomplete = [np.arange(0, 6), np.arange(6, 11)]
        with pytest.raises(ValueError, match="row_blocks"):
            build_block_sparse_od_tensors(
                dataset.trips, dataset.city, incomplete,
                n_intervals=dataset.field.n_intervals)


class TestWindows:
    def test_window_matches_dense_slice(self, sparse, sequence):
        tensors, mask = sparse.window(2, 6)
        np.testing.assert_array_equal(tensors, sequence.tensors[2:6])
        np.testing.assert_array_equal(mask, sequence.mask[2:6])

    def test_window_range_validated(self, sparse):
        with pytest.raises(ValueError, match="window"):
            sparse.window(-1, 3)
        with pytest.raises(ValueError, match="window"):
            sparse.window(0, sparse.n_intervals + 1)


class TestWindowDatasetParity:
    def test_same_length_and_samples(self, sparse, windows):
        sparse_windows = BlockSparseWindowDataset(sparse, s=3, h=2)
        assert len(sparse_windows) == len(windows)
        for i in (0, len(windows) - 1):
            np.testing.assert_array_equal(sparse_windows.history(i),
                                          windows.history(i))
            np.testing.assert_array_equal(sparse_windows.target(i),
                                          windows.target(i))
            np.testing.assert_array_equal(sparse_windows.target_mask(i),
                                          windows.target_mask(i))
            np.testing.assert_array_equal(
                sparse_windows.target_intervals(i),
                windows.target_intervals(i))

    def test_batches_bit_identical_under_same_rng(self, sparse,
                                                  windows):
        sparse_windows = BlockSparseWindowDataset(sparse, s=3, h=2)
        indices = np.arange(len(windows))
        dense_batches = list(windows.batches(
            indices, 4, rng=np.random.default_rng(7)))
        sparse_batches = list(sparse_windows.batches(
            indices, 4, rng=np.random.default_rng(7)))
        assert len(sparse_batches) == len(dense_batches)
        for got, want in zip(sparse_batches, dense_batches):
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)

    def test_too_short_sequence_rejected(self, sparse):
        with pytest.raises(ValueError, match="too short"):
            BlockSparseWindowDataset(sparse, s=sparse.n_intervals,
                                     h=sparse.n_intervals)
        with pytest.raises(ValueError, match=">= 1"):
            BlockSparseWindowDataset(sparse, s=0, h=1)


class TestValidationAndOccupancy:
    def test_validate_catches_denormalized_payload(self, sequence):
        sparse = BlockSparseODTensor.from_dense(sequence, _blocks(),
                                                _blocks())
        key = next(iter(sparse.blocks))
        sparse.blocks[key] = sparse.blocks[key] * 3.0
        with pytest.raises(ValueError, match="normalized"):
            sparse.validate()

    def test_validate_catches_missing_mask(self, sequence):
        sparse = BlockSparseODTensor.from_dense(sequence, _blocks(),
                                                _blocks())
        key = next(iter(sparse.blocks))
        del sparse.mask_blocks[key]
        with pytest.raises(ValueError, match="mask"):
            sparse.validate()

    def test_occupancy_report(self, sparse):
        report = sparse.occupancy()
        for field in ("block_rows", "block_cols", "occupied_blocks",
                      "block_density", "payload_bytes", "dense_bytes",
                      "compression"):
            assert field in report
        assert 0 < report["block_density"] <= 1
        assert report["payload_bytes"] == sparse.nbytes()
        assert report["compression"] > 0
