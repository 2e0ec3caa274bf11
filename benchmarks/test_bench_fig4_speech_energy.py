"""Figure 4: speech recognition energy usage.

The energy companion to Figure 3: client-side joules per alternative in
the battery-powered energy scenario, plus the shape claim that drives
the scenario's decision — the hybrid plan is faster but hungrier than
remote, so an energy-conscious Spectra goes remote at full fidelity.
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
def test_fig4_speech_energy(benchmark, results_dir):
    results = benchmark.pedantic(_speech_results, rounds=1, iterations=1)
    energy = results["energy"]

    save_figure(results_dir, "fig4_speech_energy",
                render_figure("fig4", results))

    joules = {m.label: m.energy_j for m in energy.measurements}
    times = {m.label: m.time_s for m in energy.measurements}

    # "Although hybrid execution takes less time, it consumes more
    # energy because a portion of the computation is done on the client."
    assert times["hybrid@t20 [vocab=full]"] < times["remote@t20 [vocab=full]"]
    assert joules["hybrid@t20 [vocab=full]"] > joules["remote@t20 [vocab=full]"]

    # Local execution is an energy disaster on the FPU-less Itsy.
    assert joules["local [vocab=full]"] > 5 * joules["remote@t20 [vocab=full]"]

    # "Spectra correctly chooses to avoid the reduced vocabulary — the
    # small energy and latency benefits do not outweigh the decrease in
    # fidelity."
    choice = energy.spectra.choice
    assert choice.plan.name == "remote"
    assert choice.fidelity_dict()["vocab"] == "full"
    assert energy.relative_utility(spec) >= 0.9
