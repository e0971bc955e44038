"""Block-sparse OD tensor storage for metro-scale cities.

At paper scale (≤ 79 regions) the dense ``(T, N, N', K)`` sequence of
:mod:`repro.histograms.tensor_builder` is the right representation.  At
metro scale (500–1000+ regions) it stops being one: the array grows with
``N²`` while the observed trips grow roughly with ``N``, so almost every
OD cell is a structural zero.  This module stores the sequence as a grid
of **blocks** — the row/column partition comes from a
:class:`repro.graph.sharding.ShardPlan` (origin clusters × destination
clusters) — keeping a dense payload only for blocks that contain at
least one observed cell anywhere in the sequence.

The representation round-trips exactly: ``from_dense(seq).to_dense()``
is bit-identical to ``seq``, and :func:`build_block_sparse_od_tensors`
aggregates trips straight into block payloads without ever allocating
the dense ``(T, N, N', K)`` intermediate, producing bit-identical cell
values to :func:`repro.histograms.tensor_builder.build_od_tensors`
(per-cell unit increments and one shared normalization).

:class:`BlockSparseWindowDataset` exposes the same ``batches`` protocol
as :class:`repro.histograms.windows.WindowDataset` (identical shuffle
RNG consumption), assembling dense windows on demand so the trainer
never holds more than one batch of dense data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..regions.city import City
from ..trips.trip import TripTable
from .histogram import HistogramSpec
from .tensor_builder import ODTensorSequence

__all__ = ["BlockSparseODTensor", "BlockSparseWindowDataset",
           "build_block_sparse_od_tensors"]

BlockKey = Tuple[int, int]


def _normalize_blocks(blocks: Sequence[np.ndarray], n: int,
                      label: str) -> Tuple[np.ndarray, ...]:
    """Validate a block partition: sorted, disjoint, covering ``0..n-1``."""
    arrays = tuple(np.asarray(b, dtype=np.int64) for b in blocks)
    if not arrays:
        raise ValueError(f"{label}: need at least one block")
    joined = np.concatenate(arrays)
    if joined.size != n or \
            not np.array_equal(np.sort(joined), np.arange(n)):
        raise ValueError(
            f"{label}: blocks must partition 0..{n - 1} exactly "
            f"(got {joined.size} ids)")
    return arrays


@dataclass
class BlockSparseODTensor:
    """A block-sparse OD stochastic speed tensor sequence.

    Attributes
    ----------
    row_blocks / col_blocks:
        Origin / destination id arrays per block row / column — a
        disjoint cover of each axis (typically a shard plan's
        ``row_blocks()`` / ``col_blocks()``).
    blocks:
        ``{(bi, bj): (T, len(row_blocks[bi]), len(col_blocks[bj]), K)}``
        dense histogram payloads, present only for occupied blocks.
    mask_blocks / count_blocks:
        Matching ``(T, rows, cols)`` observation masks and trip counts.
    """

    row_blocks: Tuple[np.ndarray, ...]
    col_blocks: Tuple[np.ndarray, ...]
    blocks: Dict[BlockKey, np.ndarray]
    mask_blocks: Dict[BlockKey, np.ndarray]
    count_blocks: Dict[BlockKey, np.ndarray]
    n_intervals: int
    n_origins: int
    n_destinations: int
    n_buckets: int
    spec: HistogramSpec
    interval_minutes: float
    _validated: bool = field(default=False, repr=False)

    def __post_init__(self):
        if not getattr(self, "_validated", False):
            self.validate()
            self._validated = True

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int, int]:
        return (self.n_intervals, self.n_origins, self.n_destinations,
                self.n_buckets)

    @property
    def n_block_rows(self) -> int:
        return len(self.row_blocks)

    @property
    def n_block_cols(self) -> int:
        return len(self.col_blocks)

    @property
    def n_occupied(self) -> int:
        return len(self.blocks)

    def density(self) -> float:
        """Fraction of blocks that carry a payload."""
        return self.n_occupied / (self.n_block_rows * self.n_block_cols)

    def nbytes(self) -> int:
        """Payload bytes actually stored (histograms + masks + counts)."""
        return int(sum(p.nbytes for p in self.blocks.values())
                   + sum(p.nbytes for p in self.mask_blocks.values())
                   + sum(p.nbytes for p in self.count_blocks.values()))

    def dense_nbytes(self) -> int:
        """Bytes the equivalent dense :class:`ODTensorSequence` needs."""
        t, n, m, k = self.shape
        cells = t * n * m
        return int(cells * k * 8 + cells * 1 + cells * 8)

    # ------------------------------------------------------------------
    def validate(self) -> "BlockSparseODTensor":
        """Contract check: partitions cover each axis, payload shapes
        match their block, masks/counts agree, histograms are finite and
        normalized (or all-zero) on observed cells."""
        self.row_blocks = _normalize_blocks(self.row_blocks,
                                            self.n_origins, "row_blocks")
        self.col_blocks = _normalize_blocks(self.col_blocks,
                                            self.n_destinations,
                                            "col_blocks")
        for (bi, bj), payload in self.blocks.items():
            expected = (self.n_intervals, self.row_blocks[bi].size,
                        self.col_blocks[bj].size, self.n_buckets)
            if payload.shape != expected:
                raise ValueError(
                    f"block {(bi, bj)} payload shape {payload.shape} != "
                    f"{expected}")
            mask = self.mask_blocks.get((bi, bj))
            counts = self.count_blocks.get((bi, bj))
            if mask is None or mask.shape != expected[:3] or \
                    mask.dtype != np.bool_:
                raise ValueError(
                    f"block {(bi, bj)} lacks a boolean mask of shape "
                    f"{expected[:3]}")
            if counts is None or counts.shape != expected[:3]:
                raise ValueError(
                    f"block {(bi, bj)} lacks counts of shape "
                    f"{expected[:3]}")
            if not np.isfinite(payload).all():
                raise ValueError(
                    f"block {(bi, bj)} payload contains non-finite values")
            sums = payload.sum(axis=-1)
            observed = mask & (sums > 0)
            if observed.any() and \
                    not np.allclose(sums[observed], 1.0, atol=1e-6):
                raise ValueError(
                    f"block {(bi, bj)} observed histograms are not "
                    f"normalized")
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, sequence: ODTensorSequence,
                   row_blocks: Sequence[np.ndarray],
                   col_blocks: Sequence[np.ndarray]
                   ) -> "BlockSparseODTensor":
        """Block-partition a dense sequence, dropping all-empty blocks."""
        rows = _normalize_blocks(row_blocks, sequence.n_origins,
                                 "row_blocks")
        cols = _normalize_blocks(col_blocks, sequence.n_destinations,
                                 "col_blocks")
        blocks: Dict[BlockKey, np.ndarray] = {}
        masks: Dict[BlockKey, np.ndarray] = {}
        counts: Dict[BlockKey, np.ndarray] = {}
        for bi, row_ids in enumerate(rows):
            for bj, col_ids in enumerate(cols):
                sel = np.ix_(range(sequence.n_intervals), row_ids, col_ids)
                mask = sequence.mask[sel]
                if not mask.any():
                    continue
                blocks[(bi, bj)] = np.ascontiguousarray(
                    sequence.tensors[sel + (slice(None),)])
                masks[(bi, bj)] = np.ascontiguousarray(mask)
                counts[(bi, bj)] = np.ascontiguousarray(
                    sequence.counts[sel])
        return cls(row_blocks=rows, col_blocks=cols, blocks=blocks,
                   mask_blocks=masks, count_blocks=counts,
                   n_intervals=sequence.n_intervals,
                   n_origins=sequence.n_origins,
                   n_destinations=sequence.n_destinations,
                   n_buckets=sequence.n_buckets, spec=sequence.spec,
                   interval_minutes=sequence.interval_minutes)

    def to_dense(self) -> ODTensorSequence:
        """Materialize the dense sequence (bit-identical round trip)."""
        t, n, m, k = self.shape
        tensors = np.zeros((t, n, m, k))
        mask = np.zeros((t, n, m), dtype=bool)
        counts = np.zeros((t, n, m))
        for (bi, bj), payload in self.blocks.items():
            sel = np.ix_(range(t), self.row_blocks[bi],
                         self.col_blocks[bj])
            tensors[sel + (slice(None),)] = payload
            mask[sel] = self.mask_blocks[(bi, bj)]
            counts[sel] = self.count_blocks[(bi, bj)]
        return ODTensorSequence(tensors=tensors, mask=mask, counts=counts,
                                spec=self.spec,
                                interval_minutes=self.interval_minutes,
                                _validated=True)

    # ------------------------------------------------------------------
    def window(self, start: int, stop: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(stop-start, N, N', K)`` tensors + mask for a time
        range — the on-demand assembly the window dataset batches from."""
        if not 0 <= start <= stop <= self.n_intervals:
            raise ValueError(
                f"window [{start}, {stop}) out of range for "
                f"{self.n_intervals} intervals")
        t = stop - start
        tensors = np.zeros((t, self.n_origins, self.n_destinations,
                            self.n_buckets))
        mask = np.zeros((t, self.n_origins, self.n_destinations),
                        dtype=bool)
        for (bi, bj), payload in self.blocks.items():
            sel = np.ix_(range(t), self.row_blocks[bi],
                         self.col_blocks[bj])
            tensors[sel + (slice(None),)] = payload[start:stop]
            mask[sel] = self.mask_blocks[(bi, bj)][start:stop]
        return tensors, mask

    def occupancy(self) -> dict:
        """Sparsity summary for telemetry / benchmark reports."""
        return {"block_rows": self.n_block_rows,
                "block_cols": self.n_block_cols,
                "occupied_blocks": self.n_occupied,
                "block_density": self.density(),
                "payload_bytes": self.nbytes(),
                "dense_bytes": self.dense_nbytes(),
                "compression": self.dense_nbytes() / max(self.nbytes(), 1)}


def build_block_sparse_od_tensors(
        trips: TripTable, city: City,
        row_blocks: Sequence[np.ndarray],
        col_blocks: Optional[Sequence[np.ndarray]] = None,
        spec: Optional[HistogramSpec] = None,
        interval_minutes: float = 15.0,
        n_intervals: Optional[int] = None,
        min_trips: int = 1) -> BlockSparseODTensor:
    """Aggregate trips straight into block payloads.

    The metro-scale twin of
    :func:`repro.histograms.tensor_builder.build_od_tensors`: identical
    bucketing, thresholding, and normalization per cell — bit-identical
    values — but peak memory is bounded by the occupied blocks instead
    of the dense ``(T, N, N, K)`` array.
    """
    spec = spec or HistogramSpec.paper_default()
    n = city.n_regions
    rows = _normalize_blocks(row_blocks, n, "row_blocks")
    cols = _normalize_blocks(col_blocks if col_blocks is not None
                             else row_blocks, n, "col_blocks")
    if n_intervals is None:
        if len(trips) == 0:
            raise ValueError("cannot infer n_intervals from zero trips")
        n_intervals = int(trips.departure_min.max() // interval_minutes) + 1

    # Region id -> (block index, local index within the block).
    row_of = np.empty(n, dtype=np.int64)
    row_local = np.empty(n, dtype=np.int64)
    for bi, ids in enumerate(rows):
        row_of[ids] = bi
        row_local[ids] = np.arange(ids.size)
    col_of = np.empty(n, dtype=np.int64)
    col_local = np.empty(n, dtype=np.int64)
    for bj, ids in enumerate(cols):
        col_of[ids] = bj
        col_local[ids] = np.arange(ids.size)

    blocks: Dict[BlockKey, np.ndarray] = {}
    masks: Dict[BlockKey, np.ndarray] = {}
    count_blocks: Dict[BlockKey, np.ndarray] = {}
    if len(trips):
        interval = (trips.departure_min // interval_minutes).astype(
            np.int64)
        keep = (interval >= 0) & (interval < n_intervals)
        interval = interval[keep]
        kept = trips[keep]
        origin = city.partition.assign(kept.origin_xy)
        dest = city.partition.assign(kept.dest_xy)
        bucket = spec.assign_bucket(kept.speed_ms)
        block_key = row_of[origin] * len(cols) + col_of[dest]
        for flat in np.unique(block_key):
            bi, bj = int(flat) // len(cols), int(flat) % len(cols)
            inside = block_key == flat
            payload = np.zeros((n_intervals, rows[bi].size,
                                cols[bj].size, spec.n_buckets))
            counts = np.zeros((n_intervals, rows[bi].size,
                               cols[bj].size))
            idx = (interval[inside], row_local[origin[inside]],
                   col_local[dest[inside]])
            np.add.at(payload, idx + (bucket[inside],), 1.0)
            np.add.at(counts, idx, 1.0)
            mask = counts >= min_trips
            payload[~mask] = 0.0
            totals = payload.sum(axis=-1, keepdims=True)
            np.divide(payload, totals, out=payload, where=totals > 0)
            if mask.any():
                blocks[(bi, bj)] = payload
                masks[(bi, bj)] = mask
                count_blocks[(bi, bj)] = counts
    return BlockSparseODTensor(
        row_blocks=rows, col_blocks=cols, blocks=blocks,
        mask_blocks=masks, count_blocks=count_blocks,
        n_intervals=n_intervals, n_origins=n, n_destinations=n,
        n_buckets=spec.n_buckets, spec=spec,
        interval_minutes=interval_minutes)


@dataclass
class BlockSparseWindowDataset:
    """Sliding windows over a block-sparse sequence.

    Mirrors :class:`repro.histograms.windows.WindowDataset`'s ``batches``
    protocol exactly (same shuffle-RNG consumption, same yielded
    shapes), assembling dense windows per batch so peak dense memory is
    one batch, not the whole sequence.
    """

    tensor: BlockSparseODTensor
    s: int
    h: int
    offset: int = 0

    def __post_init__(self):
        if self.s < 1 or self.h < 1:
            raise ValueError("s and h must be >= 1")
        # len() itself would raise on a negative __len__ before our
        # message, so compute the sample count directly.
        if self.tensor.n_intervals - self.s - self.h + 1 <= 0:
            raise ValueError(
                f"sequence with {self.tensor.n_intervals} intervals too "
                f"short for s={self.s}, h={self.h}")

    def __len__(self) -> int:
        return self.tensor.n_intervals - self.s - self.h + 1

    # ------------------------------------------------------------------
    def history(self, i: int) -> np.ndarray:
        return self.tensor.window(i, i + self.s)[0]

    def target(self, i: int) -> np.ndarray:
        return self.tensor.window(i + self.s, i + self.s + self.h)[0]

    def target_mask(self, i: int) -> np.ndarray:
        return self.tensor.window(i + self.s, i + self.s + self.h)[1]

    def target_intervals(self, i: int) -> np.ndarray:
        return np.arange(i + self.s, i + self.s + self.h) + self.offset

    def gather(self, indices) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack samples: returns (histories, targets, target_masks)."""
        windows = [self.tensor.window(i, i + self.s + self.h)
                   for i in indices]
        histories = np.stack([w[0][:self.s] for w in windows])
        targets = np.stack([w[0][self.s:] for w in windows])
        masks = np.stack([w[1][self.s:] for w in windows])
        return histories, targets, masks

    def batches(self, indices: np.ndarray, batch_size: int,
                rng: np.random.Generator = None
                ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield shuffled mini-batches over the given sample indices."""
        indices = np.asarray(indices)
        if rng is not None:
            indices = rng.permutation(indices)
        for start in range(0, len(indices), batch_size):
            yield self.gather(indices[start:start + batch_size])
