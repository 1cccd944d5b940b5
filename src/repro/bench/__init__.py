"""Benchmark harness: timing helpers, the Section 5.2 cost model, and
one runner per paper figure (``python -m repro.bench.runner`` prints
them all)."""

from .cost_model import (
    CostBreakdown,
    CostParameters,
    calibrate,
    measured_match_cost_ms,
    predicate_match_cost,
)
from .reporting import format_series, format_table, print_experiment
from .runner import (
    run_ablation_balancing,
    run_ablation_indexes,
    run_cost_model,
    run_matcher_scaling,
    run_fig7,
    run_fig8,
    run_fig9,
    run_space,
)
from .timing import best_of, time_per_op, time_total

__all__ = [
    "CostParameters",
    "CostBreakdown",
    "predicate_match_cost",
    "calibrate",
    "measured_match_cost_ms",
    "format_table",
    "format_series",
    "print_experiment",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_cost_model",
    "run_space",
    "run_ablation_indexes",
    "run_ablation_balancing",
    "run_matcher_scaling",
    "time_total",
    "time_per_op",
    "best_of",
]
