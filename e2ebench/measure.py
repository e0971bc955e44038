"""Statistics, operation accounting, output checks and the host
fingerprint shared by every workload."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

# Samples that must lie beyond a percentile for it to count as a tail.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> dict:
    """The highest percentile (to 0.1) with at least ``TAIL_BEYOND``
    samples beyond it, never below the median, with its sample count."""
    n = len(samples)
    q = max(50.0, np.floor(1000.0 * (1.0 - TAIL_BEYOND / max(n, 1))) / 10)
    value = float(np.percentile(samples, q)) if n else float("nan")
    return {"value": value, "percentile": float(q), "samples": n}


@dataclass
class Phase:
    """Operation accounting for one phase of one workload.

    ``refused`` is a deliberate fast-fail (:class:`ShedError`);
    ``failed`` is an error, a timeout, a degraded (stale) answer, a
    failed output check or a non-finite training loss.
    """

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0
    errors: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.sent += 1
        self.succeeded += 1

    def fail(self, why: str) -> None:
        self.sent += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def refuse(self) -> None:
        self.sent += 1
        self.refused += 1

    def demote(self, why: str) -> None:
        """A success whose output failed a later check."""
        self.succeeded -= 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def as_dict(self) -> dict:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed, "refused": self.refused,
                "errors": self.errors}


def forecast_problem(prediction: Optional[np.ndarray]) -> Optional[str]:
    """None when every forecast cell is finite and sums to 1."""
    if prediction is None:
        return "no prediction"
    if not np.isfinite(prediction).all():
        return "non-finite forecast cell"
    drift = float(np.abs(prediction.sum(axis=-1) - 1.0).max())
    if drift > 1e-9:
        return f"forecast cell sums drift from 1 by {drift:.3e}"
    return None


def peak_rss_mib() -> Dict[str, float]:
    """Peak resident set of this process and of the largest reaped child
    (a serving worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self": own, "largest_child": child, "total": own + child}


def trips_sha256(trips) -> str:
    digest = hashlib.sha256()
    for column in (trips.origin_xy, trips.dest_xy, trips.departure_min,
                   trips.distance_km, trips.duration_min):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def host_fingerprint() -> Dict[str, object]:
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine()}
