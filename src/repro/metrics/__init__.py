"""Evaluation metrics: KL/JS/EMD and masked DisSim aggregation."""

from .calibration import (expected_calibration_error, histogram_entropy,
                          ranked_probability_score, sharpness,
                          trip_outcomes)
from .divergence import (METRICS, PAPER_DELTA, emd, emd_flow, js_divergence,
                         kl_divergence)
from .evaluation import (EvaluationResult, distance_groups,
                         evaluate_forecasts, grouped_metric,
                         time_of_day_groups)

__all__ = [
    "kl_divergence", "js_divergence", "emd", "emd_flow",
    "METRICS", "PAPER_DELTA",
    "EvaluationResult", "evaluate_forecasts", "grouped_metric",
    "time_of_day_groups", "distance_groups",
    "ranked_probability_score", "expected_calibration_error",
    "histogram_entropy", "sharpness", "trip_outcomes",
]
