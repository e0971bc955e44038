"""Experiment harness: dataset prep, method roster, table/figure drivers."""

from .figures import (ProximitySweepResult, distance_analysis,
                      proximity_sweep, sparseness_report,
                      time_of_day_analysis)
from .methods import (BENCH_BUDGET, QUICK_BUDGET, MethodBudget, full_roster,
                      make_af, make_bf, make_fc, make_gp, make_mr, make_nh,
                      make_var)
from .runner import (ComparisonResult, ExperimentData, MethodResult,
                     prepare, run_comparison)

__all__ = [
    "prepare", "run_comparison",
    "ExperimentData", "ComparisonResult", "MethodResult",
    "MethodBudget", "QUICK_BUDGET", "BENCH_BUDGET",
    "full_roster",
    "make_nh", "make_gp", "make_var", "make_mr", "make_fc", "make_bf",
    "make_af",
    "sparseness_report", "time_of_day_analysis", "distance_analysis",
    "proximity_sweep", "ProximitySweepResult",
]
