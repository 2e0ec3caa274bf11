"""Self-lint: the repo must satisfy its own sim-safety rule pack.

This is the acceptance gate for the analysis subsystem — the exact CI
invocation must exit 0 on the tree as committed:

* ``python -m spclint`` from the repo root, with no arguments: every
  rule over ``src/repro tests benchmarks examples spclint``; any
  finding fails.

Any new wall-clock, environment or entropy read, unseeded RNG,
unpaired lifecycle, float equality on a measurement, dead attribute,
swallowed exception, or stale suppression fails this test before it
reaches CI.  (Telemetry-name typos are import errors; see
``tests/unit/test_telemetry_names.py``.)

The in-process checks sweep the gate's targets, once through the
shared parse cache and once file by file through
:func:`spclint.analyze_source`, and the CLI checks run
:func:`spclint.cli.main` in-process.
"""

import pathlib

from spclint import analyze_paths, analyze_source, iter_python_files
from spclint.cli import main as lint_main
from spclint.engine import DEFAULT_TARGETS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_repo_is_clean_in_process(monkeypatch):
    """One in-process sweep of the gate's targets has zero findings."""
    monkeypatch.chdir(REPO_ROOT)
    violations = analyze_paths()
    assert violations == [], "\n".join(v.render() for v in violations)


def test_repo_is_deep_clean_in_process(monkeypatch):
    """Each file of the gate's targets, linted on its own from its text,
    has zero findings: the per-file entry point runs every rule, the
    suppression audit included, as the sweep does."""
    monkeypatch.chdir(REPO_ROOT)
    violations = []
    for path in iter_python_files(DEFAULT_TARGETS):
        text = pathlib.Path(path).read_text(encoding="utf-8")
        violations.extend(analyze_source(path, text))
    assert violations == [], "\n".join(v.render() for v in violations)


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
