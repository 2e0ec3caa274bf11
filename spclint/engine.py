"""The analysis driver: files in, violations out.

* :func:`analyze_paths` — the sweep: expand the targets to ``*.py``
  files, read each once through the shared
  :class:`~spclint.cache.ParseCache`, run the per-file rule pack on
  every parsed file, then collect them all into one :class:`Project`
  and run the whole-program SPC1xx pack over it.  Unreadable or
  unparseable files become violations (``SPC000`` / ``SPC999``), and
  every rule's findings are suppression-filtered per file.  The
  per-file rules and the whole-program pack share one parse of every
  file.
* :func:`analyze_source` — the per-file rule pack over one source
  string: the unit tests' way to exercise a single rule without a tree
  on disk.

Both take two keyword seams for tests: ``select`` (which rules run)
and, for :func:`analyze_paths`, ``cache`` (a private parse cache).

The engine's hard guarantee — relied on by the property tests — is that
it **never raises** on any input path or text: a rule that crashes is
reported as an ``SPC000`` finding naming the rule and the error, so a
rule-pack bug fails the lint run loudly without taking the tool down.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .cache import ParseCache
from .core import (
    INTERNAL_CODE,
    RULE_REGISTRY,
    SYNTAX_CODE,
    ProjectRule,
    Rule,
    SourceFile,
    Violation,
    all_rules,
)
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


class Project:
    """Every successfully parsed file of one sweep, plus context.

    Project rules read four things from here: the parsed
    :attr:`files`, the :attr:`rules` this sweep runs, the lazily built
    :attr:`index` (modules, defs, resolved call edges — see
    :mod:`spclint.flow.project`), and :attr:`raw_findings` — every
    violation produced so far *before* suppression filtering, which is
    what the unused-suppression audit (SPC105) means by "would this
    waiver have suppressed anything".
    """

    def __init__(self, files: Dict[str, SourceFile], rules: List[Rule]):
        self.files = files
        self.rules = rules
        #: pre-suppression findings from every rule that already ran,
        #: grown as the whole-program pass proceeds (code order).
        self.raw_findings: List[Violation] = []
        self._index = None

    @property
    def index(self):
        """The whole-program index, built once on first use."""
        if self._index is None:
            from .flow.project import ProjectIndex
            self._index = ProjectIndex.build(self.files)
        return self._index

    def sources(self) -> List[SourceFile]:
        return [self.files[path] for path in sorted(self.files)]


def _check_file(source: SourceFile,
                rules: List[Rule]) -> List[Violation]:
    """Run the per-file rules on one parsed source; pre-suppression."""
    violations: List[Violation] = []
    for rule in rules:
        if isinstance(rule, ProjectRule) or not rule.applies_to(source):
            continue
        try:
            violations.extend(rule.check(source))
        except Exception as exc:
            # A rule bug must fail the lint run visibly, not crash it.
            violations.append(Violation(
                rule=INTERNAL_CODE, path=source.path, line=1, col=0,
                message=(f"rule {rule.code} ({rule.name}) crashed: "
                         f"{exc.__class__.__name__}: {exc}"),
            ))
    return violations


def _filter_suppressed(violations: Iterable[Violation],
                       files: Dict[str, SourceFile]) -> List[Violation]:
    kept = []
    for violation in violations:
        source = files.get(violation.path)
        if source is not None and is_suppressed(
                source.suppressions, violation.line, violation.rule):
            continue
        kept.append(violation)
    return kept


def analyze_source(path: str, text: str, *,
                   select: Optional[Sequence[str]] = None,
                   ) -> List[Violation]:
    """Run the per-file rules over one source string.

    Never raises on any *text*; an unknown code in *select* is a
    ``ValueError``.
    """
    rules = _selected_rules(select)
    try:
        tree = ast.parse(text, filename=path)
    except (SyntaxError, ValueError) as exc:
        # ValueError: source with null bytes.
        line = getattr(exc, "lineno", None) or 1
        col = (getattr(exc, "offset", None) or 1) - 1
        return [Violation(rule=SYNTAX_CODE, path=path, line=line,
                          col=max(col, 0),
                          message=f"file does not parse: {exc.__class__.__name__}: {exc}")]

    source = SourceFile(path, text, tree)
    violations = _filter_suppressed(_check_file(source, rules),
                                    {path: source})
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


def _check_project(project: Project) -> List[Violation]:
    """Run the whole-program rules; pre-suppression.  Never raises.

    Rules run in code order, appending their raw findings to
    ``project.raw_findings`` as they go — so a later pass (the SPC105
    suppression audit) sees everything the earlier ones would have
    reported.
    """
    produced: List[Violation] = []
    for rule in project.rules:
        if not isinstance(rule, ProjectRule):
            continue
        try:
            found = list(rule.check_project(project))
        except Exception as exc:
            found = [Violation(
                rule=INTERNAL_CODE, path="<project>", line=1, col=0,
                message=(f"rule {rule.code} ({rule.name}) crashed: "
                         f"{exc.__class__.__name__}: {exc}"),
            )]
        produced.extend(found)
        project.raw_findings.extend(found)
    return produced


def analyze_paths(paths: Sequence[str] = DEFAULT_TARGETS, *,
                  select: Optional[Sequence[str]] = None,
                  cache: Optional[ParseCache] = None) -> List[Violation]:
    """Lint every Python file under *paths*, whole program included.

    Never raises, except ``ValueError`` for an unknown code in
    *select*.
    """
    rules = _selected_rules(select)
    cache = cache if cache is not None else _SHARED_CACHE
    files: Dict[str, SourceFile] = {}
    violations: List[Violation] = []
    raw: List[Violation] = []
    for path in iter_python_files(paths):
        source, failures = cache.load(path)
        if source is None:
            violations.extend(failures)
            continue
        files[path] = source
        raw.extend(_check_file(source, rules))
    violations.extend(_filter_suppressed(raw, files))

    project = Project(files, rules)
    project.raw_findings.extend(raw)
    violations.extend(_filter_suppressed(_check_project(project), files))

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
