"""Region substrate: planar geometry, city partitions, and city models."""

from .city import City, chengdu_like, manhattan_like, metro_like, toy_city
from .geometry import BoundingBox
from .partition import Partition, SeededPartition

__all__ = [
    "BoundingBox",
    "Partition", "SeededPartition",
    "City", "manhattan_like", "chengdu_like", "metro_like", "toy_city",
]
