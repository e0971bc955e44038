"""Terminal visualization: labelled bars — no plotting deps.

The library is CLI-first (benchmarks print their figures as text), so
these helpers render the common shapes:

* :func:`bar_chart` — labelled horizontal bars (method comparisons);
* :func:`histogram_bars` — a speed histogram with bucket labels.

All functions return strings; nothing is printed implicitly.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np


def bar_chart(data: Mapping[str, float], width: int = 40,
              fmt: str = "{:.4f}") -> str:
    """Horizontal bars for labelled values (larger value → longer bar)."""
    if not data:
        return ""
    label_width = max(len(str(key)) for key in data)
    peak = max(abs(v) for v in data.values()) or 1.0
    lines = []
    for key, value in data.items():
        n = int(round(width * abs(value) / peak))
        lines.append(f"{str(key):>{label_width}s} "
                     f"{fmt.format(value):>10s} {'█' * n}")
    return "\n".join(lines)


def histogram_bars(histogram: Sequence[float],
                   edges: Optional[Sequence[float]] = None,
                   width: int = 40) -> str:
    """Render a probability histogram with bucket-range labels."""
    histogram = np.asarray(list(histogram), dtype=np.float64)
    if edges is not None and len(edges) != len(histogram) + 1:
        raise ValueError("edges must have one more entry than buckets")
    peak = histogram.max() or 1.0
    lines = []
    for k, probability in enumerate(histogram):
        if edges is not None:
            hi = "inf" if np.isinf(edges[k + 1]) else f"{edges[k + 1]:g}"
            label = f"[{edges[k]:g}, {hi})"
        else:
            label = f"bucket {k}"
        n = int(round(width * probability / peak))
        lines.append(f"{label:>12s} {probability:6.3f} {'█' * n}")
    return "\n".join(lines)
