"""Figure 3: speech recognition execution time.

Regenerates the paper's Figure 3 — execution time for every (plan ×
vocabulary) alternative plus Spectra's own choice, across the five
resource scenarios on the Itsy/T20 testbed — and asserts the figure's
shape claims.
"""

import pytest

from repro.apps import make_speech_spec
from repro.experiments import run_speech_experiment
from repro.experiments.figures import render_figure

from conftest import cached, save_figure

spec = make_speech_spec()


def _speech_results():
    return cached("speech", run_speech_experiment)


@pytest.mark.benchmark(group="figures")
def test_fig3_speech_execution_time(benchmark, results_dir):
    results = benchmark.pedantic(_speech_results, rounds=1, iterations=1)

    save_figure(results_dir, "fig3_speech_time",
                render_figure("fig3", results))

    # Shape assertions from the paper's §4.1 narrative.
    baseline = {m.label: m.time_s for m in results["baseline"].measurements}
    local = baseline["local [vocab=full]"]
    hybrid = baseline["hybrid@t20 [vocab=full]"]
    remote = baseline["remote@t20 [vocab=full]"]
    assert 3.0 <= local / hybrid <= 9.0     # "3-9 times as long"
    assert 3.0 <= local / remote <= 9.0
    assert hybrid < remote                  # hybrid wins the baseline

    assert results["baseline"].spectra.choice.plan.name == "hybrid"
    assert results["energy"].spectra.choice.plan.name == "remote"
    assert results["network"].spectra.choice.plan.name == "hybrid"
    assert results["cpu"].spectra.choice.plan.name == "remote"
    filecache_choice = results["filecache"].spectra.choice
    assert filecache_choice.plan.name == "local"
    assert filecache_choice.fidelity_dict()["vocab"] == "reduced"

    # Spectra is within a whisker of the best alternative everywhere.
    for scenario, result in results.items():
        assert result.percentile(spec) >= 80, scenario
