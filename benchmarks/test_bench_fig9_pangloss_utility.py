"""Figure 9: Pangloss-Lite relative utility vs a zero-overhead oracle.

The paper: "In general, Spectra did an excellent job for Pangloss-Lite,
achieving on average 91% of the best utility."  We assert the same
order: a high per-cell floor and a ≥85% average.
"""

import pytest

from repro.apps import make_pangloss_spec
from repro.experiments import run_pangloss_experiment
from repro.experiments.figures import render_figure

from conftest import cached, save_figure

spec = make_pangloss_spec()


def _pangloss_results():
    return cached("pangloss", run_pangloss_experiment)


@pytest.mark.benchmark(group="figures")
def test_fig9_pangloss_relative_utility(benchmark, results_dir):
    results = benchmark.pedantic(_pangloss_results, rounds=1, iterations=1)

    save_figure(results_dir, "fig9_pangloss_utility",
                render_figure("fig9", results))

    rels = {key: result.relative_utility(spec)
            for key, result in results.items()}

    average = sum(rels.values()) / len(rels)
    assert average >= 0.85, f"average relative utility {average:.3f}"

    # Baseline decisions are within a few percent of the oracle ("the
    # utility of Spectra's choices are all within 2% of the best option"
    # — we allow 10% including overhead).
    for (scenario, words), rel in rels.items():
        if scenario == "baseline":
            assert rel >= 0.90, (scenario, words, rel)

    # Even the hardest cells (loaded server + cold cache) stay useful.
    assert min(rels.values()) >= 0.45, rels
