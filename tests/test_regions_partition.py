"""Tests for grid and seeded partitions."""

import numpy as np
import pytest

from repro.regions import BoundingBox, SeededPartition


class TestSeededPartition:
    def test_nearest_seed_assignment(self):
        seeds = np.array([[0.0, 0.0], [10.0, 0.0]])
        part = SeededPartition(seeds)
        assert part.assign(np.array([1.0, 0.0])) == 0
        assert part.assign(np.array([9.0, 0.0])) == 1

    def test_assign_batch_shape(self, rng):
        part = SeededPartition(rng.uniform(0, 5, size=(7, 2)))
        pts = rng.uniform(0, 5, size=(4, 6, 2))
        assert part.assign(pts).shape == (4, 6)

    def test_seeds_assigned_to_themselves(self, rng):
        seeds = rng.uniform(0, 5, size=(9, 2))
        part = SeededPartition(seeds)
        assert np.array_equal(part.assign(seeds), np.arange(9))

    def test_random_covers_box(self, rng):
        box = BoundingBox(0, 0, 6, 6)
        part = SeededPartition.random(box, 10, rng)
        assert part.n_regions == 10
        assert (part.centroids >= [box.x_min, box.y_min]).all()
        assert (part.centroids <= [box.x_max, box.y_max]).all()
        # all regions should own at least one of many random points
        samples = box.sample(rng, 5000)
        owners = part.assign(samples)
        assert len(np.unique(owners)) == 10

    def test_lloyd_relaxation_evens_sizes(self, rng):
        box = BoundingBox(0, 0, 6, 6)
        raw = SeededPartition(box.sample(np.random.default_rng(0), 12))
        relaxed = SeededPartition.random(box, 12,
                                         np.random.default_rng(0),
                                         lloyd_iterations=5)
        samples = box.sample(rng, 8000)

        def size_spread(partition):
            counts = np.bincount(partition.assign(samples), minlength=12)
            return counts.std() / counts.mean()

        assert size_spread(relaxed) < size_spread(raw)

    def test_centroid_distances_symmetric(self, rng):
        part = SeededPartition(rng.uniform(0, 4, size=(5, 2)))
        d = part.centroid_distances()
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0)

    def test_too_few_seeds(self):
        with pytest.raises(ValueError):
            SeededPartition(np.array([[0.0, 0.0]]))

    def test_bad_seed_shape(self):
        with pytest.raises(ValueError):
            SeededPartition(np.zeros((5, 3)))
