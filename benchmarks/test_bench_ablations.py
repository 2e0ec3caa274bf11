"""Ablation benchmarks: what each of Spectra's design choices buys.

Not a paper figure — the extension study DESIGN.md §6 calls for.  Each
ablation flips exactly one mechanism and reports paired metrics.
"""

import pytest

from repro.experiments.ablation import (
    ablate_data_specific_models,
    ablate_hybrid_plan,
    ablate_monitor_freshness,
    ablate_recency_weighting,
    ablate_reintegration_policy,
    ablate_solver,
    ablate_utility_form,
    render_ablation_table,
    render_solver_table,
)

from conftest import cached, save_figure


def _ablations():
    return cached("ablations", lambda: [
        ablate_utility_form(),
        ablate_recency_weighting(),
        ablate_data_specific_models(),
        ablate_hybrid_plan(),
        ablate_reintegration_policy(),
        ablate_monitor_freshness(),
    ])


@pytest.mark.benchmark(group="ablations")
def test_ablation_suite(benchmark, results_dir):
    outcomes = benchmark.pedantic(_ablations, rounds=1, iterations=1)

    save_figure(results_dir, "ablations", render_ablation_table(outcomes))

    # The paper's design never loses its own ablation.
    for outcome in outcomes:
        assert outcome.baseline_wins, outcome.name

    # Specific magnitudes worth pinning:
    by_name = {o.name: o for o in outcomes}
    data_models = by_name[
        "data-specific models (on vs off), Latex CPU-demand error"
    ]
    assert data_models.baseline_value < 0.01   # per-document: exact
    assert data_models.ablated_value > 0.10    # generic: systematic error

    reintegration = by_name[
        "reintegration (likelihood-driven vs always), large document"
    ]
    # Indiscriminate reintegration costs whole seconds on the clean
    # volume.
    assert (reintegration.ablated_value
            > reintegration.baseline_value + 2.0)

    freshness = by_name[
        "monitor freshness (re-poll after change vs stale status)"
    ]
    # Stale remote status walks the operation into a loaded server and
    # a cold cache; fresh monitoring routes around both.
    assert freshness.baseline_value > freshness.ablated_value + 0.3


@pytest.mark.benchmark(group="ablations")
def test_ablation_solver_quality(benchmark, results_dir):
    out = benchmark.pedantic(
        lambda: cached("ablation-solver", ablate_solver),
        rounds=1, iterations=1,
    )
    save_figure(results_dir, "ablation_solver", render_solver_table(out))

    # The heuristic search stays within a few points of exhaustive.
    assert out["heuristic_relative_utility"] >= (
        out["exhaustive_relative_utility"] - 0.10
    )
    assert out["heuristic_percentile"] >= 90
