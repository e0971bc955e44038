#!/usr/bin/env python3
"""The paper's motivating use case: how early should I leave for a flight?

§I of the paper: given a *stochastic* speed forecast for the OD pair
(home region → airport region) and the trip length, derive a travel-time
distribution and pick a departure buffer that makes the flight with the
desired confidence.  Using only the average speed understates the risk —
this example quantifies by how much.

Run:  python examples/travel_time_reservation.py
"""

import numpy as np

from repro import prepare, toy_dataset
from repro.experiments import MethodBudget, make_af
from repro.histograms import travel_time_distribution


def main() -> None:
    print("Training AF on a synthetic city...")
    dataset = toy_dataset(n_days=6, n_regions=12, seed=11)
    data = prepare(dataset, s=6, h=1)
    forecaster = make_af(data, MethodBudget(epochs=6, batch_size=16,
                                            max_train_batches=12))
    forecaster.fit(data.windows, data.split, horizon=1)

    # Forecast the next interval for a morning test window.
    window = int(data.split.test[0])
    forecast = forecaster.predict(data.windows, np.array([window]), 1)

    home, airport = 0, 9
    trip_km = 12.0
    spec = data.sequence.spec
    histogram = forecast[0, 0, home, airport]
    print(f"\nForecast speed histogram, region {home} -> region {airport}:")
    for k in range(spec.n_buckets):
        lo, hi = spec.edges[k], spec.edges[k + 1]
        print(f"  [{lo:4.0f},{hi:4.0f}) m/s : {histogram[k]:.3f}")

    distribution = travel_time_distribution(histogram, spec, trip_km)
    mean_speed = spec.mean_speed(histogram)
    naive_minutes = trip_km * 1000 / mean_speed / 60

    print(f"\nTrip length: {trip_km} km")
    print(f"Naive plan from the average speed ({mean_speed:.1f} m/s): "
          f"{naive_minutes:.0f} minutes")
    for confidence in (0.5, 0.8, 0.95):
        needed = distribution.quantile(confidence)
        print(f"Reserve {needed:6.0f} minutes to arrive on time with "
              f"{confidence:.0%} confidence")
    p95 = distribution.quantile(0.95)
    print(f"\nPlanning with the mean alone under-reserves by "
          f"{p95 - naive_minutes:.0f} minutes at the 95% level — the "
          "paper's argument for stochastic OD matrices.")


if __name__ == "__main__":
    main()
