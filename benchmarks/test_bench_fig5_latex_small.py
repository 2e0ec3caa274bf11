"""Figure 5: Latex execution time for the small (14-page) document.

Four scenarios × three placements (local / server A / server B) plus
Spectra's pick, on the 560X / wireless testbed.
"""

import pytest

from repro.experiments import run_latex_experiment
from repro.experiments.figures import render_figure

from conftest import cached, save_figure


def _latex_results():
    return cached("latex", run_latex_experiment)


@pytest.mark.benchmark(group="figures")
def test_fig5_latex_small_document(benchmark, results_dir):
    results = benchmark.pedantic(_latex_results, rounds=1, iterations=1)
    small = {scenario: results[(scenario, "small")]
             for scenario in ("baseline", "filecache", "reintegrate",
                              "energy")}

    save_figure(results_dir, "fig5_latex_small",
                render_figure("fig5", results))

    def times(result):
        return {m.alternative.server or "local": m.time_s
                for m in result.measurements}

    # Baseline: CPU speed decides; B wins.
    assert small["baseline"].spectra.choice.server == "server-b"
    t = times(small["baseline"])
    assert t["server-b"] < t["server-a"] < t["local"]

    # File-cache: B's cold cache flips the choice to A.
    assert small["filecache"].spectra.choice.server == "server-a"
    t = times(small["filecache"])
    assert t["server-a"] < t["server-b"]

    # Reintegrate: the dirty volume makes remote expensive; local wins.
    assert not small["reintegrate"].spectra.choice.plan.uses_remote
    t = times(small["reintegrate"])
    assert t["local"] < min(t["server-a"], t["server-b"])

    # Energy: B costs less energy despite more time.
    assert small["energy"].spectra.choice.server == "server-b"
