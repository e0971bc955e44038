"""Planar geometry helpers for region handling.

All coordinates are planar kilometres (a local tangent-plane projection of
the city), which keeps distances Euclidean and matches the paper's use of
centroid distances for the Figure 11–13 grouping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box in km coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(f"degenerate bounding box {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Uniform random points inside the box, shape ``(n, 2)``."""
        xs = rng.uniform(self.x_min, self.x_max, size=n)
        ys = rng.uniform(self.y_min, self.y_max, size=n)
        return np.column_stack([xs, ys])
