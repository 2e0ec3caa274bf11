"""Experiment harness regenerating every table and figure of §4."""

from .ablation import AblationOutcome, run_all_ablations
from .accuracy import (
    AccuracyResult,
    RoundAccuracy,
    is_converging,
    render_accuracy_table,
    run_accuracy_experiment,
)
from .baselines import PolicyOutcome, run_policy_comparison, summarize
from .contention import (
    ContentionCell,
    render_contention_table,
    run_contention_cell,
    run_contention_experiment,
)
from .latex import run_latex_experiment
from .overhead import (
    OverheadRow,
    full_cache_prediction_ms,
    measure_overhead,
    run_overhead_experiment,
)
from .pangloss import run_pangloss_experiment
from .parallel import (
    ParallelCell,
    render_parallel_table,
    run_parallel_experiment,
)
from .report import render_bar_figure, render_overhead_table, render_rank_figure
from .runner import (
    AltMeasurement,
    ScenarioResult,
    SpectraMeasurement,
    best_measurement,
    rank_percentile,
    relative_utility,
    score_measurement,
    utility_of,
)
from .speech import run_speech_experiment

__all__ = [
    "AblationOutcome",
    "AccuracyResult",
    "AltMeasurement",
    "ContentionCell",
    "OverheadRow",
    "ParallelCell",
    "PolicyOutcome",
    "RoundAccuracy",
    "ScenarioResult",
    "SpectraMeasurement",
    "best_measurement",
    "full_cache_prediction_ms",
    "is_converging",
    "measure_overhead",
    "rank_percentile",
    "relative_utility",
    "render_accuracy_table",
    "render_bar_figure",
    "render_contention_table",
    "render_overhead_table",
    "render_parallel_table",
    "render_rank_figure",
    "run_accuracy_experiment",
    "run_all_ablations",
    "run_contention_cell",
    "run_contention_experiment",
    "run_latex_experiment",
    "run_overhead_experiment",
    "run_pangloss_experiment",
    "run_parallel_experiment",
    "run_policy_comparison",
    "run_speech_experiment",
    "score_measurement",
    "summarize",
    "utility_of",
]
