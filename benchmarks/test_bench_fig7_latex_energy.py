"""Figure 7: Latex energy usage (the battery-powered energy scenario).

Figure 7(a) explains the paper's most counter-intuitive decision: for
the small document Spectra picks server B *even though it is slower
than local execution*, because B uses slightly less client energy —
"Because energy is of paramount concern, Spectra opts for energy
savings over faster execution time."
"""

import pytest

from repro.experiments import run_latex_experiment
from repro.experiments.figures import render_figure

from conftest import cached, save_figure


def _latex_results():
    return cached("latex", run_latex_experiment)


@pytest.mark.benchmark(group="figures")
def test_fig7_latex_energy(benchmark, results_dir):
    results = benchmark.pedantic(_latex_results, rounds=1, iterations=1)
    energy = {
        "energy/small": results[("energy", "small")],
        "energy/large": results[("energy", "large")],
    }

    save_figure(results_dir, "fig7_latex_energy",
                render_figure("fig7", results))

    def axis(result, field):
        return {m.alternative.server or "local": getattr(m, field)
                for m in result.measurements}

    # 7(a): small document — B saves energy but not time.
    small = energy["energy/small"]
    joules = axis(small, "energy_j")
    times = axis(small, "time_s")
    assert joules["server-b"] < joules["local"]
    assert times["server-b"] > times["local"]
    assert small.spectra.choice.server == "server-b"

    # 7(b): large document — B saves both.
    large = energy["energy/large"]
    joules = axis(large, "energy_j")
    times = axis(large, "time_s")
    assert joules["server-b"] < joules["local"]
    assert times["server-b"] < times["local"]
    assert large.spectra.choice.server == "server-b"
