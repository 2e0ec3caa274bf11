"""Figure 10: Spectra overhead (the null-operation breakdown table)."""

import pytest

from repro.experiments import full_cache_prediction_ms, run_overhead_experiment
from repro.experiments.figures import render_figure

from conftest import cached, save_figure


def _overhead_rows():
    return cached("overhead", run_overhead_experiment)


@pytest.mark.benchmark(group="figures")
def test_fig10_overhead_table(benchmark, results_dir):
    rows = benchmark.pedantic(_overhead_rows, rounds=1, iterations=1)
    full_cache = cached("overhead-fullcache", full_cache_prediction_ms)

    save_figure(results_dir, "fig10_overhead",
                render_figure("fig10", (rows, full_cache)))

    by_servers = {row.n_servers: row for row in rows}

    # Paper: 18.4 ms with no servers (we allow 13-25 ms).
    assert 13.0 <= by_servers[0].total * 1e3 <= 25.0
    # Monotone growth with server count; 5 servers still well under the
    # second-scale operations Spectra targets.
    assert (by_servers[0].total < by_servers[1].total
            < by_servers[5].total < 0.15)
    # Growth is dominated by snapshotting + choosing, not fixed costs.
    fixed_delta = abs(by_servers[5].register - by_servers[0].register)
    variable_delta = (by_servers[5].choosing + by_servers[5].begin_other
                      - by_servers[0].choosing - by_servers[0].begin_other)
    assert variable_delta > 10 * max(fixed_delta, 1e-6)
    # The paper's 359.6 ms full-cache pathology.
    assert 250.0 <= full_cache <= 500.0
