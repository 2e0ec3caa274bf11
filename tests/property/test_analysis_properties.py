"""Property tests for the analysis engine's never-crash guarantee.

The engine's contract is that :func:`analyze_source` returns a list of
violations for *any* input text — syntax errors, null bytes, weird
unicode — and :func:`analyze_paths` does the same for any path, its
whole-program pack included.  The sweep below pins that on every real
file in the repo, the engine's own included; the hypothesis test pins
it on adversarial text.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spclint import Violation, analyze_paths, analyze_source

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

ALL_SOURCE_FILES = sorted(
    path for root in ("src", "tests", "benchmarks", "spclint")
    for path in (REPO_ROOT / root).rglob("*.py")
    if "__pycache__" not in path.parts
)


@pytest.mark.parametrize(
    "path", ALL_SOURCE_FILES,
    ids=[str(p.relative_to(REPO_ROOT)) for p in ALL_SOURCE_FILES],
)
def test_engine_never_crashes_on_repo_file(path):
    violations = analyze_paths([str(path)])
    assert isinstance(violations, list)
    for violation in violations:
        assert isinstance(violation, Violation)
        assert violation.line >= 1
        assert violation.col >= 0
        assert violation.message


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=400))
def test_engine_never_crashes_on_arbitrary_text(text):
    violations = analyze_source("src/repro/fuzz.py", text)
    assert isinstance(violations, list)
    assert all(isinstance(v, Violation) for v in violations)


@settings(max_examples=100, deadline=None)
@given(
    body=st.text(
        alphabet=st.sampled_from("abcdef=+-*/()[]{}:.,'\" \n\t#0123456789"),
        max_size=300,
    )
)
def test_engine_never_crashes_on_python_shaped_text(body):
    """Denser coverage of text that often *does* parse."""
    violations = analyze_source("src/repro/fuzz.py", body)
    assert isinstance(violations, list)


def test_sweep_found_the_repo():
    """Guard against the rglob silently matching nothing."""
    assert len(ALL_SOURCE_FILES) > 100
