"""Figure 8: Pangloss-Lite decision accuracy (percentile of best).

Each bar of the paper's Figure 8 ranks Spectra's chosen alternative
among all ~100 (location × fidelity) combinations by achieved utility;
99 means it picked the best.  Three scenarios × five probe sentences.
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
def test_fig8_pangloss_percentiles(benchmark, results_dir):
    results = benchmark.pedantic(_pangloss_results, rounds=1, iterations=1)

    save_figure(results_dir, "fig8_pangloss_accuracy",
                render_figure("fig8", results))

    percentiles = {key: result.percentile(spec)
                   for key, result in results.items()}

    # Every cell lands in a high percentile of the ~90 alternatives.
    assert all(p >= 70 for p in percentiles.values()), percentiles
    # And most decisions are (near-)best.
    top = sum(1 for p in percentiles.values() if p >= 95)
    assert top >= len(percentiles) * 0.6

    # The §4.3 fidelity-adaptation claim: smallest baseline sentences use
    # all engines, the largest drop the glossary.
    smallest = results[("baseline", 4)].spectra.choice.fidelity_dict()
    largest = results[("baseline", 27)].spectra.choice.fidelity_dict()
    assert smallest == {"ebmt": "on", "glossary": "on", "dictionary": "on"}
    assert largest["glossary"] == "off"

    # The space really is paper-scale (~100 combinations).
    assert 80 <= len(results[("baseline", 4)].measurements) <= 110
