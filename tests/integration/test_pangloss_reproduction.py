"""Integration tests: the §4.3 Pangloss-Lite claims (Figures 8–9)."""

import pytest

from repro.apps import make_pangloss_spec
from repro.experiments import pangloss

spec = make_pangloss_spec()


@pytest.fixture(scope="module")
def trained():
    return pangloss._train()


@pytest.fixture(scope="module")
def baseline_small(trained):
    return pangloss._measure_cell(trained, "baseline", 4)


@pytest.fixture(scope="module")
def baseline_large(trained):
    return pangloss._measure_cell(trained, "baseline", 27)


@pytest.fixture(scope="module")
def filecache_small(trained):
    return pangloss._measure_cell(trained, "filecache", 7)


@pytest.fixture(scope="module")
def cpu_large(trained):
    return pangloss._measure_cell(trained, "cpu", 18)


class TestInputParameterModeling:
    def test_small_sentence_uses_all_engines(self, baseline_small):
        """'For the three smallest sentences, Spectra uses all
        engines.'"""
        fidelity = baseline_small.spectra.choice.fidelity_dict()
        assert fidelity == {"ebmt": "on", "glossary": "on",
                            "dictionary": "on"}

    def test_large_sentence_drops_glossary(self, baseline_large):
        """'For the two larger sentences, it does not use the glossary
        engine ... Spectra correctly predicts that execution time will
        increase with sentence size and switches to a lower fidelity.'"""
        fidelity = baseline_large.spectra.choice.fidelity_dict()
        assert fidelity["glossary"] == "off"
        assert fidelity["ebmt"] == "on"


class TestScenarioAdaptation:
    def test_filecache_avoids_server_b(self, filecache_small):
        """With the 12 MB EBMT corpus evicted from B, the EBMT engine
        should not run on B."""
        choice = filecache_small.spectra.choice
        if choice.plan.uses_remote:
            assert choice.server != "server-b"

    def test_cpu_scenario_avoids_loaded_server_a(self, cpu_large):
        choice = cpu_large.spectra.choice
        if choice.plan.uses_remote:
            assert choice.server != "server-a"


class TestDecisionQuality:
    def test_high_percentile(self, baseline_small, baseline_large,
                             filecache_small, cpu_large):
        """Figure 8: Spectra's choice lands in a high percentile of the
        ~90 alternatives."""
        for result in (baseline_small, baseline_large, filecache_small,
                       cpu_large):
            assert result.percentile(spec) >= 80

    def test_relative_utility_near_oracle(self, baseline_small,
                                          baseline_large):
        """'the utility of Spectra's choices are all within 2% of the
        best option' in the baseline scenario (we allow 10%)."""
        assert baseline_small.relative_utility(spec) >= 0.90
        assert baseline_large.relative_utility(spec) >= 0.90

    def test_space_is_paper_scale(self, baseline_small):
        """'there are 100 different combinations of location and
        fidelity' — ours is the same order."""
        assert 80 <= len(baseline_small.measurements) <= 110
