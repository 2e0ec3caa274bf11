"""Integration tests: the §4.1 speech recognition claims (Figures 3–4).

These run the full stack — testbed, training, scenario, measurement of
all six alternatives, and Spectra's own decision — and assert the shape
claims the paper makes.
"""

import pytest

from repro.apps import make_speech_spec
from repro.experiments.speech import (
    ENERGY_SCENARIO_C,
    run_speech_experiment,
)

spec = make_speech_spec()


@pytest.fixture(scope="module")
def results():
    return run_speech_experiment(
        scenarios=("baseline", "energy", "network", "cpu", "filecache"))


def by_label(result):
    return {m.label: m for m in result.measurements}


class TestBaseline:
    def test_local_plan_3_to_9x_slower(self, results):
        """'The local execution plan is clearly inferior to the hybrid
        and remote plans, taking 3-9 times as long to execute.'"""
        m = by_label(results["baseline"])
        local = m["local [vocab=full]"].time_s
        for other in ("hybrid@t20 [vocab=full]", "remote@t20 [vocab=full]"):
            ratio = local / m[other].time_s
            assert 3.0 <= ratio <= 9.0, f"{other}: ratio {ratio:.1f}"

    def test_hybrid_beats_remote(self, results):
        """'Using the hybrid plan and performing some computation locally
        takes less time than using the remote execution plan.'"""
        m = by_label(results["baseline"])
        assert (m["hybrid@t20 [vocab=full]"].time_s
                < m["remote@t20 [vocab=full]"].time_s)

    def test_spectra_chooses_hybrid_full(self, results):
        """'In the baseline scenario, Spectra correctly chooses the
        hybrid plan and the full vocabulary.'"""
        choice = results["baseline"].spectra.choice
        assert choice.plan.name == "hybrid"
        assert choice.fidelity_dict()["vocab"] == "full"

    def test_overhead_is_minimal(self, results):
        """Spectra's measured run is close to the forced run of the same
        alternative ('the overhead is minimal')."""
        result = results["baseline"]
        m = by_label(result)
        forced = m[result.spectra.label].time_s
        assert result.spectra.time_s <= forced * 1.10


class TestEnergyScenario:
    def test_spectra_chooses_remote_full(self, results):
        """'Since energy is critical, Spectra chooses the remote
        execution plan and the full vocabulary.'"""
        choice = results["energy"].spectra.choice
        assert choice.plan.name == "remote"
        assert choice.fidelity_dict()["vocab"] == "full"

    def test_hybrid_faster_but_hungrier(self, results):
        """'Although hybrid execution takes less time, it consumes more
        energy because a portion of the computation is done on the
        client.'"""
        m = by_label(results["energy"])
        hybrid = m["hybrid@t20 [vocab=full]"]
        remote = m["remote@t20 [vocab=full]"]
        assert hybrid.time_s < remote.time_s
        assert hybrid.energy_j > remote.energy_j

    def test_energy_importance_is_set(self, results):
        assert results["energy"].energy_importance == ENERGY_SCENARIO_C


class TestNetworkScenario:
    def test_halved_bandwidth_penalizes_remote_more(self, results):
        base = by_label(results["baseline"])
        slow = by_label(results["network"])
        remote_delta = (slow["remote@t20 [vocab=full]"].time_s
                        - base["remote@t20 [vocab=full]"].time_s)
        hybrid_delta = (slow["hybrid@t20 [vocab=full]"].time_s
                        - base["hybrid@t20 [vocab=full]"].time_s)
        assert remote_delta > hybrid_delta

    def test_spectra_chooses_hybrid(self, results):
        """'This makes remote execution undesirable, and Spectra
        correctly chooses to use the hybrid plan and full vocabulary.'"""
        choice = results["network"].spectra.choice
        assert choice.plan.name == "hybrid"
        assert choice.fidelity_dict()["vocab"] == "full"


class TestCPUScenario:
    def test_spectra_chooses_remote(self, results):
        """'The cost of local computation increases, making the remote
        execution plan more attractive than the hybrid plan.'"""
        assert results["cpu"].spectra.choice.plan.name == "remote"

    def test_remote_now_beats_hybrid(self, results):
        m = by_label(results["cpu"])
        assert (m["remote@t20 [vocab=full]"].time_s
                < m["hybrid@t20 [vocab=full]"].time_s)


class TestFileCacheScenario:
    def test_remote_plans_infeasible(self, results):
        """The Spectra server is partitioned away."""
        m = by_label(results["filecache"])
        assert not m["remote@t20 [vocab=full]"].feasible
        assert not m["hybrid@t20 [vocab=full]"].feasible

    def test_full_about_3x_slower_than_reduced(self, results):
        """'full-quality recognition would be approximately 3 times
        slower' (the 277 KB language model must be refetched)."""
        m = by_label(results["filecache"])
        ratio = m["local [vocab=full]"].time_s / m["local [vocab=reduced]"].time_s
        assert 2.2 <= ratio <= 4.0

    def test_spectra_degrades_fidelity(self, results):
        """'Spectra anticipates the cache miss and chooses to use
        reduced-quality recognition.'"""
        choice = results["filecache"].spectra.choice
        assert choice.plan.name == "local"
        assert choice.fidelity_dict()["vocab"] == "reduced"


class TestDecisionQuality:
    def test_spectra_always_near_best(self, results):
        """Across every scenario Spectra's percentile is high and its
        relative utility close to the oracle (the paper's headline)."""
        for scenario, result in results.items():
            assert result.percentile(spec) >= 80, scenario
            assert result.relative_utility(spec) >= 0.85, scenario
