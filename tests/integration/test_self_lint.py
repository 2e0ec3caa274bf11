"""Self-lint: the repo must satisfy its own sim-safety rule pack.

This is the acceptance gate for the analysis subsystem — the exact CI
invocation must exit 0 on the tree as committed:

* ``PYTHONPATH=src python -m repro lint src/repro tests benchmarks
  examples --deep`` (the per-file rules plus the whole-program SPC1xx
  pack; any finding fails).

Any new wall-clock call, unseeded RNG, unpaired lifecycle, float
equality on a measurement, dead attribute, swallowed exception,
call-graph determinism leak, telemetry-name typo, or stale suppression
fails this test before it reaches CI.

The in-process checks share one deep sweep of the tree (its findings
are a superset of the per-file pass's), and the plain and deep CLI
checks run :func:`repro.analysis.cli.main` in-process.
"""

import pathlib

import pytest

from repro.analysis import RULE_REGISTRY, LintConfig, analyze_paths
from repro.analysis.cli import main as lint_main
from repro.analysis.core import is_project_rule

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LINT_TARGETS = ["src/repro", "tests", "benchmarks", "examples"]


@pytest.fixture(scope="session")
def deep_findings():
    """Every finding of one in-process deep sweep of the CI targets."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return analyze_paths(LINT_TARGETS, LintConfig(), deep=True)


def test_repo_is_clean_in_process(deep_findings):
    """The per-file pack's share of the deep sweep is empty."""
    violations = [v for v in deep_findings
                  if not is_project_rule(RULE_REGISTRY.get(v.rule))]
    assert violations == [], "\n".join(v.render() for v in violations)


def test_repo_is_deep_clean_in_process(deep_findings):
    """The deep sweep, whole-program pack included, has zero findings."""
    assert deep_findings == [], "\n".join(v.render() for v in deep_findings)


def test_repo_is_clean_via_cli(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main(LINT_TARGETS)
    out, err = capsys.readouterr()
    assert code == 0, f"repro lint found violations:\n{out}{err}"
    assert "clean" in out


def test_repo_is_deep_clean_via_cli(monkeypatch, capsys):
    """The exact CI gate invocation stays green."""
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main([*LINT_TARGETS, "--deep"])
    out, err = capsys.readouterr()
    assert code == 0, f"deep lint found violations:\n{out}{err}"


def test_benchmarks_are_clean_too(monkeypatch):
    """A deep sweep of the benchmarks on their own stays clean."""
    monkeypatch.chdir(REPO_ROOT)
    violations = analyze_paths(["benchmarks"], LintConfig(), deep=True)
    assert violations == [], "\n".join(v.render() for v in violations)
