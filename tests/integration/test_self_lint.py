"""Self-lint: the repo must satisfy its own sim-safety rule pack.

This is the acceptance gate for the analysis subsystem — the exact CI
invocations must exit 0 on the tree as committed:

* ``PYTHONPATH=src python -m repro lint src/repro tests`` (per-file
  rules), and
* ``PYTHONPATH=src python -m repro lint src/repro tests --deep
  --baseline check`` (the whole-program SPC1xx pack behind the
  committed-baseline ratchet).

Any new wall-clock call, unseeded RNG, unpaired lifecycle, float
equality on a measurement, dead attribute, swallowed exception,
call-graph determinism leak, telemetry-name typo, or stale suppression
fails this test before it reaches CI.

The in-process checks share one deep sweep of the tree (its findings
are a superset of the per-file pass's), the plain and SARIF CLI checks
run :func:`repro.analysis.cli.main` in-process, and only the exact CI
ratchet invocation pays for a subprocess.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import RULE_REGISTRY, LintConfig, analyze_paths
from repro.analysis.baseline import DEFAULT_BASELINE_FILE, load_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.core import is_project_rule

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LINT_TARGETS = ["src/repro", "tests"]


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


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
    """The whole-program pack has zero un-baselined findings — and the
    committed baseline is empty, so it has zero findings, full stop."""
    assert deep_findings == [], "\n".join(v.render() for v in deep_findings)


def test_repo_is_clean_via_cli(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main(LINT_TARGETS)
    out, err = capsys.readouterr()
    assert code == 0, f"repro lint found violations:\n{out}{err}"
    assert "clean" in out


def test_deep_baseline_check_via_cli():
    """The exact CI ratchet invocation stays green."""
    result = run_cli(*LINT_TARGETS, "--deep", "--baseline", "check")
    assert result.returncode == 0, (
        f"deep lint found un-baselined findings:\n"
        f"{result.stdout}{result.stderr}"
    )


def test_committed_baseline_is_empty():
    """The ratchet has ratcheted all the way down: every SPC1xx finding
    the deep pass ever grandfathered has been fixed.  New findings must
    be fixed, not re-baselined — this test makes growth loud."""
    baseline = load_baseline(str(REPO_ROOT / DEFAULT_BASELINE_FILE))
    assert baseline is not None, "committed lint-baseline.json unreadable"
    assert baseline == {}, (
        f"baseline grew to {len(baseline)} grandfathered findings; "
        f"fix them instead"
    )


def test_sarif_export_via_cli(monkeypatch, capsys):
    """The CI artifact invocation produces a valid, empty SARIF run."""
    monkeypatch.chdir(REPO_ROOT)
    code = lint_main([*LINT_TARGETS, "--deep", "--format", "sarif"])
    out, err = capsys.readouterr()
    assert code == 0, out + err
    payload = json.loads(out)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"] == []


def test_benchmarks_are_clean_too(monkeypatch):
    """Benchmarks aren't in the CI gate but should stay clean."""
    monkeypatch.chdir(REPO_ROOT)
    violations = analyze_paths(["benchmarks"], LintConfig(), deep=True)
    assert violations == [], "\n".join(v.render() for v in violations)
