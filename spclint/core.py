"""Core types of the sim-safety analysis engine.

The engine is deliberately small: a :class:`Rule` visits one parsed
source file and yields :class:`Violation` records; the module-level
registry maps rule codes to singleton rule instances so the CLI, the
test suite, and the engine all agree on what "the rule pack" is.  Each
rule carries its own scope and constants; there is no per-run
configuration.

Rules are *advisory by construction*: every rule is a heuristic over
the AST, so every violation can be silenced in place with an inline
``# spectra: noqa[CODE]`` comment (see :mod:`.suppressions`).  The
contract a rule must honor is narrower than correctness — it must never
raise on a parseable file (the engine additionally guards against rule
bugs, surfacing them as ``SPC000`` violations instead of crashing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

#: Reserved code for engine-internal failures (rule crashes, unreadable
#: files).  Never registered as a real rule; never suppressible.
INTERNAL_CODE = "SPC000"

#: Reserved code for files that do not parse.  The gate treats it
#: like any other violation, so a syntax error fails the build too.
SYNTAX_CODE = "SPC999"


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a location."""

    rule: str                 # e.g. "SPC001"
    path: str                 # file the finding is in (as given to the engine)
    line: int                 # 1-based line number
    col: int                  # 0-based column offset
    message: str              # human-readable diagnosis

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


class SourceFile:
    """A parsed source file, shared by every rule that inspects it.

    Derived views of the tree that more than one consumer needs —
    import aliases, the child→parent map, inline suppressions — are
    computed once on first access and memoized here, so N rules share
    one walk instead of each re-deriving it.
    """

    def __init__(self, path: str, text: str, tree: ast.AST):
        self.path = path
        #: POSIX-ish form used for scope matching.
        self.posix_path = path.replace("\\", "/")
        self.text = text
        self.tree = tree
        self._aliases: Optional[Dict[str, str]] = None
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._suppressions: Optional[Dict[int, Any]] = None

    @property
    def aliases(self) -> Dict[str, str]:
        """Import alias map (memoized; see :func:`import_aliases`)."""
        if self._aliases is None:
            self._aliases = import_aliases(self.tree)
        return self._aliases

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """child→parent node map (memoized; see :func:`parent_map`)."""
        if self._parents is None:
            self._parents = parent_map(self.tree)
        return self._parents

    @property
    def suppressions(self) -> Dict[int, Any]:
        """line → suppressed rule codes (memoized)."""
        if self._suppressions is None:
            from .suppressions import suppressed_lines
            self._suppressions = suppressed_lines(self.text)
        return self._suppressions

    def __repr__(self) -> str:
        return f"<SourceFile {self.path!r}>"


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding violations.  ``scope`` limits where the rule runs: path
    fragments matched against the POSIX form of the file path
    (substring match), empty tuple = everywhere.
    """

    code: str = INTERNAL_CODE
    name: str = "unnamed"
    description: str = ""
    scope: Tuple[str, ...] = ()

    def applies_to(self, source: SourceFile) -> bool:
        return not self.scope or any(fragment in source.posix_path
                                     for fragment in self.scope)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, source: SourceFile, node: ast.AST,
                  message: str) -> Violation:
        return Violation(
            rule=self.code, path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: code -> rule instance; populated by :func:`register_rule` decorators
#: in the :mod:`.rules` package.
RULE_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index a rule by its code."""
    if cls.code in (INTERNAL_CODE, SYNTAX_CODE):
        raise ValueError(f"rule code {cls.code} is reserved")
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls()
    return cls


def all_rules() -> List[Rule]:
    """The registered rule pack, in code order."""
    return [RULE_REGISTRY[code] for code in sorted(RULE_REGISTRY)]


# -- shared AST helpers ----------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the full dotted path they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``import os.path`` -> ``{"os": "os"}`` (it binds the package ``os``);
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.
    Relative imports map to their bare module path (level dots dropped) —
    good enough for matching third-party modules like ``time``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    first = alias.name.split(".")[0]
                    aliases[first] = first
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                full = f"{module}.{alias.name}" if module else alias.name
                aliases[alias.asname or alias.name] = full
    return aliases


def resolve_call_path(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted path of a call target, import-resolved.

    ``np.random.random`` with ``{"np": "numpy"}`` resolves to
    ``numpy.random.random``; a bare name imported via ``from x import y``
    resolves through the alias map; everything else returns the literal
    dotted chain (or None for dynamic targets like ``fns[0]()``).
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in aliases:
        resolved = aliases[head]
        return f"{resolved}.{rest}" if rest else resolved
    return dotted


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """child node -> parent node, for rules that need upward context."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
