#!/usr/bin/env python3
"""Manhattan-scale scenario: the paper's NYC experiment, end to end.

Builds the 67-region Manhattan-like city, generates several days of
taxi trips, trains FC / BF / AF, and reports the accuracy both overall
and broken down by time of day — a compact rendition of the paper's
Table II and Figures 8-10 for one dataset.

This is the heavyweight example (~15 minutes on one CPU core); pass
``--quick`` to shrink it to a 2-minute sanity run.

Run:  python examples/nyc_scenario.py [--quick]
"""

import sys

import numpy as np

from repro import nyc_like_dataset, prepare, run_comparison
from repro.experiments import (MethodBudget, make_af, make_bf, make_fc,
                               make_nh, time_of_day_analysis)


def main(quick: bool) -> None:
    n_days = 3 if quick else 8
    budget = MethodBudget(epochs=3 if quick else 10, batch_size=16,
                          max_train_batches=6 if quick else 16,
                          patience=4)

    print(f"Generating {n_days} days of Manhattan-like taxi trips...")
    dataset = nyc_like_dataset(n_days=n_days)
    data = prepare(dataset, s=6, h=3)
    print(f"  {len(dataset.trips):,} trips, {len(data.windows)} windows, "
          f"{data.sequence.sparsity().mean():.1%} mean cell sparsity")

    roster = {
        "nh": make_nh,
        "fc": lambda d: make_fc(d, budget),
        "bf": lambda d: make_bf(d, budget),
        "af": lambda d: make_af(d, budget),
    }
    print("\nTraining FC, BF, AF (this is the slow part)...")
    result = run_comparison(data, roster, keep_predictions=True,
                            max_test_windows=32)
    print("\n" + result.format_table())

    print("\nAccuracy by time of day (EMD per 3-hour block):")
    blocks = time_of_day_analysis(data, result, metric="emd")
    share = blocks["af"]["share"]
    print("  block:  " + "".join(f"{3*b:02d}-{3*b+3:02d}h ".rjust(9)
                                 for b in range(8)))
    print("  share:  " + "".join(f"{s:8.1%} " for s in share))
    for name in ("fc", "bf", "af"):
        row = "".join("     n/a " if np.isnan(v) else f"{v:8.3f} "
                      for v in blocks[name]["value"])
        print(f"  {name:6s}:{row}")

    af = result.methods["af"].evaluation
    fc = result.methods["fc"].evaluation
    print(f"\nAF improves EMD over FC by "
          f"{100 * (1 - af.overall('emd') / fc.overall('emd')):.1f}% "
          "overall.")


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
