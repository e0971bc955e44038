"""Tests for city models."""

import numpy as np

from repro.graph import ProximityConfig
from repro.regions import chengdu_like, manhattan_like, toy_city


class TestCityModels:
    def test_manhattan_like_shape(self):
        nyc = manhattan_like()
        assert nyc.n_regions == 67
        assert nyc.name == "nyc"
        # Elongated strip: much taller than wide.
        assert nyc.box.height / nyc.box.width > 3

    def test_chengdu_like_shape(self):
        cd = chengdu_like()
        assert cd.n_regions == 79
        assert cd.name == "cd"
        # Roughly isotropic.
        assert 0.5 < cd.box.height / cd.box.width < 2

    def test_chengdu_more_heterogeneous(self):
        assert chengdu_like().heterogeneity > manhattan_like().heterogeneity

    def test_deterministic_given_seed(self):
        a, b = manhattan_like(seed=5), manhattan_like(seed=5)
        assert np.allclose(a.centroids, b.centroids)
        c = manhattan_like(seed=6)
        assert not np.allclose(a.centroids, c.centroids)

    def test_centroids_inside_box(self):
        city = toy_city()
        box = city.box
        assert (city.centroids >= [box.x_min, box.y_min]).all()
        assert (city.centroids <= [box.x_max, box.y_max]).all()

    def test_proximity_properties(self):
        city = toy_city(n_regions=15)
        w = city.proximity()
        assert w.shape == (15, 15)
        assert np.allclose(w, w.T)
        assert (w.sum(axis=1) > 0).all()   # connected

    def test_proximity_custom_config(self):
        city = toy_city()
        tight = city.proximity(ProximityConfig(sigma=0.1, alpha=0.5))
        loose = city.proximity(ProximityConfig(sigma=5.0, alpha=10.0))
        assert (tight > 0).sum() <= (loose > 0).sum()

    def test_default_config_scales_with_city(self):
        small = toy_city(n_regions=12, extent_km=2.0)
        large = toy_city(n_regions=12, extent_km=20.0)
        assert (large.default_proximity_config().alpha
                > small.default_proximity_config().alpha)

    def test_centroid_distances(self):
        city = toy_city()
        d = city.centroid_distances()
        assert d.shape == (city.n_regions, city.n_regions)
        assert (d[~np.eye(city.n_regions, dtype=bool)] > 0).all()
