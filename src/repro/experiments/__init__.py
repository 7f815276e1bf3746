"""Experiment harness: configs, runner, figure reproductions, reporting,
CSV export, and the scale study."""

from .config import FIGURES, ExperimentConfig
from .export import export_experiment, write_series_csv, write_summary_csv
from .planner import (
    Candidate,
    CandidateResult,
    LatencyObjective,
    PlanReport,
    evaluate_candidate,
    plan_capacity,
)
from .scale import ScalePoint, measure_scale_point, scale_study, scale_table
from .figures import (
    IntervalDemoResult,
    RepartitionDemoResult,
    figure3_demo,
    figure4_demo,
    figure5_demo,
    run_figure,
)
from .report import comparison_table, interval_bar, render_experiment, series_block, sparkline
from .runner import (
    available_policies,
    generate_trace,
    make_policy,
    run_experiment,
    run_policy,
)

__all__ = [
    "FIGURES",
    "ExperimentConfig",
    "figure3_demo",
    "figure4_demo",
    "figure5_demo",
    "run_figure",
    "IntervalDemoResult",
    "RepartitionDemoResult",
    "available_policies",
    "make_policy",
    "generate_trace",
    "run_experiment",
    "run_policy",
    "comparison_table",
    "interval_bar",
    "render_experiment",
    "series_block",
    "sparkline",
    "export_experiment",
    "write_series_csv",
    "write_summary_csv",
    "scale_study",
    "scale_table",
    "measure_scale_point",
    "ScalePoint",
    "Candidate",
    "CandidateResult",
    "LatencyObjective",
    "PlanReport",
    "evaluate_candidate",
    "plan_capacity",
]
