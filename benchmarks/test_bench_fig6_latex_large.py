"""Figure 6: Latex execution time for the large (123-page) document."""

import pytest

from repro.experiments import run_latex_experiment
from repro.experiments.figures import render_figure

from conftest import cached, save_figure


def _latex_results():
    return cached("latex", run_latex_experiment)


@pytest.mark.benchmark(group="figures")
def test_fig6_latex_large_document(benchmark, results_dir):
    results = benchmark.pedantic(_latex_results, rounds=1, iterations=1)
    large = {scenario: results[(scenario, "large")]
             for scenario in ("baseline", "filecache", "reintegrate",
                              "energy")}

    save_figure(results_dir, "fig6_latex_large",
                render_figure("fig6", results))

    # Server B wins every large-document scenario.
    for scenario, result in large.items():
        assert result.spectra.choice.server == "server-b", scenario

    # "For the larger document, Spectra correctly predicts that the
    # modified file will not be needed and does not force
    # [reintegration]": B's time matches the baseline.
    def b_time(result):
        return next(m.time_s for m in result.measurements
                    if m.alternative.server == "server-b")

    assert b_time(large["reintegrate"]) == pytest.approx(
        b_time(large["baseline"]), rel=0.05
    )

    # The large document dwarfs the small one everywhere.
    small = cached("latex", run_latex_experiment)[("baseline", "small")]
    assert b_time(large["baseline"]) > 4 * next(
        m.time_s for m in small.measurements
        if m.alternative.server == "server-b"
    )
