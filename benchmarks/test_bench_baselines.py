"""Baseline-policy comparison benchmark.

Quantifies the paper's related-work claims: static placement breaks
when the environment shifts, and RPF — time/battery history only, no
per-resource monitors, no fidelity — cannot anticipate cache state,
bandwidth changes, or quality trade-offs.  Spectra should dominate on
average.
"""


import pytest

from repro.experiments import run_policy_comparison, summarize
from repro.experiments.baselines import render_policy_table

from conftest import cached, save_figure


def _comparison():
    return cached("policies", run_policy_comparison)


@pytest.mark.benchmark(group="baselines")
def test_policy_comparison(benchmark, results_dir):
    outcomes = benchmark.pedantic(_comparison, rounds=1, iterations=1)
    means = summarize(outcomes)

    save_figure(results_dir, "policy_comparison",
                render_policy_table(outcomes))

    # Spectra dominates every baseline on average.
    for policy, mean in means.items():
        if policy != "spectra":
            assert means["spectra"] > mean, (policy, mean)
    assert means["spectra"] >= 0.9

    # Static policies each have a catastrophic scenario.
    worst_local = min(o.relative_utility for o in outcomes
                      if o.policy == "always-local")
    assert worst_local < 0.5
    # Spectra never collapses.
    worst_spectra = min(o.relative_utility for o in outcomes
                        if o.policy == "spectra")
    assert worst_spectra >= 0.85
