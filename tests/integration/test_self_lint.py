"""Self-lint: the repo must satisfy its own sim-safety rule pack.

This is the acceptance gate for the analysis subsystem — the exact CI
invocation must exit 0 on the tree as committed:

* ``python -m spclint`` from the repo root, with no arguments: the
  per-file rules plus the whole-program SPC1xx pack over ``src/repro
  tests benchmarks examples spclint``; any finding fails.

Any new wall-clock, environment or entropy read, unseeded RNG,
unpaired lifecycle, float equality on a measurement, dead attribute,
swallowed exception, or stale suppression fails this test before it
reaches CI.  (Telemetry-name typos are import errors; see
``tests/unit/test_telemetry_names.py``.)

The in-process checks share one sweep of the gate's targets, and the
CLI checks run :func:`spclint.cli.main` in-process.
"""

import pathlib

import pytest

from spclint import RULE_REGISTRY, analyze_paths
from spclint.cli import main as lint_main
from spclint.core import ProjectRule
from spclint.engine import DEFAULT_TARGETS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_findings():
    """Every finding of one in-process sweep of the gate's targets."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return analyze_paths()


def test_repo_is_clean_in_process(repo_findings):
    """The per-file rules' share of the sweep is empty."""
    violations = [v for v in repo_findings
                  if not isinstance(RULE_REGISTRY.get(v.rule), ProjectRule)]
    assert violations == [], "\n".join(v.render() for v in violations)


def test_repo_is_deep_clean_in_process(repo_findings):
    """The sweep, whole-program pack included, has zero findings."""
    assert repo_findings == [], "\n".join(v.render() for v in repo_findings)


def test_repo_is_clean_via_cli(monkeypatch, capsys):
    """The exact CI gate invocation stays green."""
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main([])
    out, err = capsys.readouterr()
    assert code == 0, f"spclint found violations:\n{out}{err}"
    assert "clean" in out


def test_repo_is_deep_clean_via_cli(monkeypatch, capsys):
    """Naming the targets explicitly sweeps them as the default does."""
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main(list(DEFAULT_TARGETS))
    out, err = capsys.readouterr()
    assert code == 0, f"spclint found violations:\n{out}{err}"
    assert "clean" in out


def test_benchmarks_are_clean_too(monkeypatch):
    """A sweep of the benchmarks on their own stays clean."""
    monkeypatch.chdir(REPO_ROOT)
    violations = analyze_paths(["benchmarks"])
    assert violations == [], "\n".join(v.render() for v in violations)
