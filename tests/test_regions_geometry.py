"""Tests for planar geometry helpers."""

import pytest

from repro.regions import BoundingBox


class TestBoundingBox:
    def test_properties(self):
        box = BoundingBox(0, 0, 4, 3)
        assert box.width == 4 and box.height == 3 and box.area == 12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 3)
        with pytest.raises(ValueError):
            BoundingBox(2, 0, 1, 3)

    def test_sample_inside(self, rng):
        box = BoundingBox(1, 2, 3, 5)
        pts = box.sample(rng, 500)
        assert pts.shape == (500, 2)
        assert (pts >= [box.x_min, box.y_min]).all()
        assert (pts <= [box.x_max, box.y_max]).all()

