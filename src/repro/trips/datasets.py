"""High-level dataset builders for the two study cities."""

from __future__ import annotations

from dataclasses import dataclass

from ..regions.city import (City, chengdu_like, manhattan_like,
                            metro_like, toy_city)
from .generator import DemandConfig, TripGenerator
from .gps import GpsSimulator, extract_trips
from .traffic import LatentTrafficField
from .trip import TripTable


@dataclass
class CityDataset:
    """A city, its latent ground-truth field, and generated trips."""

    city: City
    field: LatentTrafficField
    trips: TripTable


def nyc_like_dataset(n_days: int = 14, trips_per_interval: float = 450.0,
                     seed: int = 0, n_regions: int = 67) -> CityDataset:
    """Manhattan-style dataset: 67 regions, full-day demand.

    Defaults are scaled so one peak interval sees ~450 trips over
    67×67 ≈ 4.5 k OD pairs, i.e. most pairs are empty per interval —
    the paper's sparseness regime.
    """
    city = manhattan_like(seed=seed, n_regions=n_regions)
    field = LatentTrafficField(city, n_days=n_days, seed=seed + 1)
    generator = TripGenerator(
        field, DemandConfig(trips_per_interval=trips_per_interval),
        seed=seed + 2)
    return CityDataset(city=city, field=field, trips=generator.generate())


def chengdu_like_dataset(n_days: int = 14,
                         trips_per_interval: float = 450.0,
                         seed: int = 100, n_regions: int = 79,
                         via_gps: bool = False) -> CityDataset:
    """Chengdu-style dataset: 79 regions, no demand 00:00–06:00.

    With ``via_gps=True`` the trips take the full Chengdu ingestion path:
    trips → simulated GPS records → occupied-run extraction, exercising
    the :mod:`repro.trips.gps` pipeline end to end (slower; default off).
    """
    city = chengdu_like(seed=seed, n_regions=n_regions)
    field = LatentTrafficField(city, n_days=n_days, seed=seed + 1)
    generator = TripGenerator(
        field, DemandConfig(trips_per_interval=trips_per_interval,
                            night_gap=True),
        seed=seed + 2)
    trips = generator.generate()
    if via_gps:
        records = GpsSimulator(n_taxis=200, seed=seed + 3).simulate(trips)
        trips = extract_trips(records)
    return CityDataset(city=city, field=field, trips=trips)


def metro_dataset(n_regions: int = 500, n_intervals: int = 10,
                  trips_per_interval: float = 4000.0,
                  seed: int = 21) -> CityDataset:
    """Metro-scale dataset for the block-sparse sharded path.

    Hundreds of regions, a bounded number of 15-minute intervals
    (generation is limited to ``n_intervals`` so a 500+-region smoke
    run stays cheap).  Even thousands of trips per interval leave the
    vast majority of the ``N²`` OD slices empty — the sparsity the
    empty-slice fold in :mod:`repro.core.shardexec` exploits and
    :class:`repro.histograms.blocksparse.BlockSparseODTensor` stores.
    """
    city = metro_like(seed=seed, n_regions=n_regions)
    field = LatentTrafficField(city, n_days=1, seed=seed + 1)
    generator = TripGenerator(
        field, DemandConfig(trips_per_interval=trips_per_interval),
        seed=seed + 2)
    trips = generator.generate(last_interval=n_intervals)
    return CityDataset(city=city, field=field, trips=trips)


def toy_dataset(n_days: int = 6, n_regions: int = 12,
                trips_per_interval: float = 120.0,
                seed: int = 42) -> CityDataset:
    """Small, fast dataset for tests and the quickstart example."""
    city = toy_city(seed=seed, n_regions=n_regions)
    field = LatentTrafficField(city, n_days=n_days, seed=seed + 1)
    generator = TripGenerator(
        field, DemandConfig(trips_per_interval=trips_per_interval),
        seed=seed + 2)
    return CityDataset(city=city, field=field, trips=generator.generate())
