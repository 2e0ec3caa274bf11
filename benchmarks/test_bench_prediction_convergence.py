"""Prediction-accuracy convergence across persisted runs (§3.3/§3.4).

Regenerates ``repro accuracy``'s table: the same scenario replayed
through one predictor store, each round warm-started from everything
earlier rounds persisted, scored by the median relative error between
each operation's solver-time demand prediction and its measured usage.
"""

import pytest

from repro.experiments import (
    is_converging,
    render_accuracy_table,
    run_accuracy_experiment,
)

from conftest import cached, save_figure


def _result():
    return cached("accuracy", run_accuracy_experiment)


@pytest.mark.benchmark(group="extensions")
def test_prediction_convergence(benchmark, results_dir):
    result = benchmark.pedantic(_result, rounds=1, iterations=1)

    save_figure(results_dir, "prediction_convergence",
                render_accuracy_table(result))

    # Warm-started rounds predict, and their error never grows.
    assert any(entry.predicted_ops for entry in result.rounds[1:])
    assert is_converging(result)
