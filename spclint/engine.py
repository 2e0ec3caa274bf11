"""The analysis driver: files in, violations out.

* :func:`analyze_paths` — the sweep: expand the targets to ``*.py``
  files, read each once through the shared
  :class:`~spclint.cache.ParseCache`, and run the rule pack on every
  parsed file.  Unreadable or unparseable files become violations
  (``SPC000`` / ``SPC999``).
* :func:`analyze_source` — the rule pack over one source string: the
  unit tests' way to exercise a single rule without a tree on disk.

Every rule sees one file at a time.  On each file the suppression
audit (SPC105) runs last, over the other rules' findings on that file
before suppression; then every finding is suppression-filtered.

Both take two keyword seams for tests: ``select`` (which rules run)
and, for :func:`analyze_paths`, ``cache`` (a private parse cache).

The engine's hard guarantee — relied on by the property tests — is that
it **never raises** on any input path or text: a rule that crashes is
reported as an ``SPC000`` finding naming the rule and the error, so a
rule-pack bug fails the lint run loudly without taking the tool down.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from .cache import ParseCache, parse_text
from .core import (
    INTERNAL_CODE,
    RULE_REGISTRY,
    Rule,
    SourceFile,
    Violation,
    all_rules,
)
from .rules.suppress import UnusedSuppressionRule
from .suppressions import is_suppressed

#: What the gate sweeps, relative to the repository root: the system,
#: its tests, benchmarks and examples, and this engine itself.
DEFAULT_TARGETS = ("src/repro", "tests", "benchmarks", "examples",
                   "spclint")

#: Directory names never descended into during path expansion.
SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "node_modules",
             ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist"}

#: Process-wide parse cache shared by every sweep that doesn't bring
#: its own, so repeated in-process sweeps (test suites) reuse one
#: parse per file.
_SHARED_CACHE = ParseCache()


def _selected_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    """The registered rules, or only the *select*-ed codes of them."""
    if select is None:
        return all_rules()
    codes = {code.upper() for code in select}
    unknown = codes - set(RULE_REGISTRY)
    if unknown:
        # A typo silently linting nothing would let a test pass vacuously.
        raise ValueError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return [rule for rule in all_rules() if rule.code in codes]


def _run(rule: Rule, source: SourceFile,
         check: Callable[[], Iterable[Violation]]) -> List[Violation]:
    """*check*'s findings, or one SPC000 finding if the rule crashed."""
    try:
        return list(check())
    except Exception as exc:
        # A rule bug must fail the lint run visibly, not crash it.
        return [Violation(
            rule=INTERNAL_CODE, path=source.path, line=1, col=0,
            message=(f"rule {rule.code} ({rule.name}) crashed: "
                     f"{exc.__class__.__name__}: {exc}"),
        )]


def _check_file(source: SourceFile,
                rules: List[Rule]) -> List[Violation]:
    """Run *rules* on one parsed source, the suppression audit last.

    Returns the findings that no inline waiver suppresses.
    """
    found: List[Violation] = []
    audit = None
    for rule in rules:
        if isinstance(rule, UnusedSuppressionRule):
            audit = rule
        elif rule.applies_to(source):
            found.extend(_run(rule, source, lambda: rule.check(source)))
    if audit is not None and audit.applies_to(source):
        active = {rule.code for rule in rules}
        found.extend(_run(audit, source,
                          lambda: audit.audit(source, found, active)))
    return [violation for violation in found
            if not is_suppressed(source.suppressions, violation.line,
                                 violation.rule)]


def analyze_source(path: str, text: str, *,
                   select: Optional[Sequence[str]] = None,
                   ) -> List[Violation]:
    """Run the rule pack over one source string.

    Never raises on any *text*; an unknown code in *select* is a
    ``ValueError``.
    """
    rules = _selected_rules(select)
    source, failures = parse_text(path, text)
    if source is None:
        return failures
    violations = _check_file(source, rules)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories to a sorted, de-duplicated ``*.py`` list."""
    seen = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        full = os.path.join(dirpath, filename)
                        if full not in seen:
                            seen.add(full)
                            yield full
        else:
            # Non-existent paths flow through so analyze_paths can report
            # them as findings rather than the walker silently skipping.
            if path not in seen:
                seen.add(path)
                yield path


def analyze_paths(paths: Sequence[str] = DEFAULT_TARGETS, *,
                  select: Optional[Sequence[str]] = None,
                  cache: Optional[ParseCache] = None) -> List[Violation]:
    """Lint every Python file under *paths*.

    Never raises, except ``ValueError`` for an unknown code in
    *select*.
    """
    rules = _selected_rules(select)
    cache = cache if cache is not None else _SHARED_CACHE
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        source, failures = cache.load(path)
        violations.extend(failures if source is None
                          else _check_file(source, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
