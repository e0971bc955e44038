"""Histogram substrate: stochastic speeds, OD tensors, windowed samples."""

from .blocksparse import (BlockSparseODTensor, BlockSparseWindowDataset,
                          build_block_sparse_od_tensors)
from .histogram import HistogramSpec, normalize_histogram
from .tensor_builder import ODTensorSequence, build_od_tensors
from .travel_time import TravelTimeDistribution, travel_time_distribution
from .windows import Split, WindowDataset, chronological_split

__all__ = [
    "HistogramSpec", "normalize_histogram",
    "ODTensorSequence", "build_od_tensors",
    "WindowDataset", "Split", "chronological_split",
    "TravelTimeDistribution", "travel_time_distribution",
    "BlockSparseODTensor", "BlockSparseWindowDataset",
    "build_block_sparse_od_tensors",
]
