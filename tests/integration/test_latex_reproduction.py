"""Integration tests: the §4.2 Latex claims (Figures 5–7)."""

import pytest

from repro.apps import make_latex_spec
from repro.experiments.latex import run_latex_experiment

spec = make_latex_spec()


@pytest.fixture(scope="module")
def results():
    return run_latex_experiment(
        scenarios=("baseline", "filecache", "reintegrate", "energy"),
        documents=("small", "large"))


def times(result):
    return {m.alternative.server or "local": m.time_s
            for m in result.measurements}


class TestBaseline:
    def test_server_b_fastest_everywhere(self, results):
        """'Since little network communication is needed, CPU speed is
        the primary consideration.  Spectra correctly chooses to use the
        faster server B for both documents.'"""
        for document in ("small", "large"):
            result = results[("baseline", document)]
            t = times(result)
            assert t["server-b"] < t["server-a"] < t["local"]
            assert result.spectra.choice.server == "server-b"

    def test_large_document_costs_more(self, results):
        small = times(results[("baseline", "small")])
        large = times(results[("baseline", "large")])
        for key in ("local", "server-a", "server-b"):
            assert large[key] > small[key]


class TestFileCache:
    def test_cold_cache_flips_small_doc_to_server_a(self, results):
        """'Spectra correctly anticipates that file access time will
        increase the time needed to execute Latex on server B and
        switches execution to server A.'"""
        result = results[("filecache", "small")]
        t = times(result)
        assert t["server-a"] < t["server-b"]
        assert result.spectra.choice.server == "server-a"

    def test_b_still_wins_large_doc(self, results):
        """For the large document B's CPU advantage outweighs the fetch."""
        result = results[("filecache", "large")]
        assert result.spectra.choice.server == "server-b"


class TestReintegrate:
    def test_small_doc_runs_locally(self, results):
        """'Reintegration over the wireless network significantly
        increases execution time for remote execution ... Spectra
        therefore chooses local execution for the smaller document.'"""
        result = results[("reintegrate", "small")]
        t = times(result)
        assert t["local"] < t["server-a"]
        assert t["local"] < t["server-b"]
        assert not result.spectra.choice.plan.uses_remote

    def test_large_doc_skips_reintegration(self, results):
        """'For the larger document, Spectra correctly predicts that the
        modified file will not be needed and does not force
        [reintegration].  It chooses the fastest plan: execution on
        server B.'"""
        result = results[("reintegrate", "large")]
        assert result.spectra.choice.server == "server-b"
        # B's time matches baseline: no reintegration happened.
        baseline_b = times(results[("baseline", "large")])["server-b"]
        assert times(result)["server-b"] == pytest.approx(
            baseline_b, rel=0.05
        )


class TestEnergy:
    def test_small_doc_moves_to_b_for_energy(self, results):
        """'Spectra chooses to use server B, even though this takes more
        time to execute ... server B uses slightly less energy.'"""
        result = results[("energy", "small")]
        choice = result.spectra.choice
        assert choice.server == "server-b"
        energies = {m.alternative.server or "local": m.energy_j
                    for m in result.measurements}
        t = times(result)
        assert energies["server-b"] < energies["local"]
        assert t["server-b"] > t["local"]  # "takes more time"

    def test_large_doc_b_wins_both_axes(self, results):
        """'The choice for the larger document is much clearer, since
        execution on server B saves both time and energy.'"""
        result = results[("energy", "large")]
        assert result.spectra.choice.server == "server-b"
        t = times(result)
        energies = {m.alternative.server or "local": m.energy_j
                    for m in result.measurements}
        assert t["server-b"] < t["local"]
        assert energies["server-b"] < energies["local"]


class TestDecisionQuality:
    def test_high_percentiles_everywhere(self, results):
        for key, result in results.items():
            assert result.percentile(spec) >= 66, key
