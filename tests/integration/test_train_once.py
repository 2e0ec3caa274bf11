"""Integration tests: a command trains each testbed once.

The paper's §4 method trains Spectra once per testbed, then measures
every alternative and Spectra's own choice.  ``repro figures`` renders
every figure of one experiment from one memoized sweep, and the policy
comparison measures every scenario and policy on clones of one trained
world.  Counted on one CPU, where every cell runs in this process.
"""

import pathlib

import pytest

from repro.cli import main
from repro.experiments import figures, run_policy_comparison, speech

GOLDENS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


@pytest.fixture
def trainings(cpus, monkeypatch):
    """Names of the testbeds trained while the test runs, the figures'
    sweep memo empty at its start."""
    cpus(1)
    monkeypatch.setattr(figures, "_last", {})
    names = []
    train_world = speech.train_world

    def counting(spec, *args, **kwargs):
        names.append(spec.name)
        return train_world(spec, *args, **kwargs)

    monkeypatch.setattr(speech, "train_world", counting)
    return names


def test_figures_3_and_4_train_the_itsy_testbed_once(trainings, tmp_path):
    assert main(["figures", "fig3", "fig4", "--quiet",
                 "--output", str(tmp_path)]) == 0
    assert trainings == ["itsy-testbed"]
    assert list(figures._last) == ["speech"]
    # The CLI writes the golden's own text, title included.
    assert ((tmp_path / "fig4.txt").read_text()
            == (GOLDENS / "fig4_speech_energy.txt").read_text())


def test_policy_comparison_trains_once(trainings):
    outcomes = run_policy_comparison()
    assert trainings == ["itsy-testbed"]
    assert len({o.scenario for o in outcomes}) == len(speech.SCENARIOS)
