"""SPC007 — no import-time numpy in the program.

The run path is pure Python: every shipped workload fits its demand
models in closed form over floats, and only a model with two or more
varying continuous inputs solves with ``lstsq``.  A module that imports
numpy when it is itself imported makes every run pay numpy's start-up
time and resident memory for that one rare path.  numpy must be
imported inside the function that uses it; annotations take it from an
``if TYPE_CHECKING:`` block, which never runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Rule, RuleConfig, SourceFile, Violation, register_rule

#: Top-level packages that must not load when a module is imported.
BANNED_MODULES = frozenset({"numpy"})

#: Bodies that do not run when the enclosing module is imported.
_DEFERRED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"))


def _imported_modules(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom) and not node.level:
        yield node.module or ""


def _import_time_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every node that runs when the module is imported.

    Function bodies run later and ``if TYPE_CHECKING:`` bodies never;
    class bodies and every other block run at import.
    """
    if isinstance(node, _DEFERRED):
        return
    yield node
    if isinstance(node, ast.If) and _is_type_checking(node):
        children = node.orelse
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _import_time_nodes(child)


@register_rule
class ImportTimeNumpyRule(Rule):
    code = "SPC007"
    name = "no-import-time-numpy"
    description = ("numpy may only be imported inside the function that "
                   "uses it (or under TYPE_CHECKING), never at import time")
    default_scope = ("src/repro",)

    def check(self, source: SourceFile,
              config: RuleConfig) -> Iterator[Violation]:
        for node in _import_time_nodes(source.tree):
            for module in _imported_modules(node):
                if module.split(".")[0] in BANNED_MODULES:
                    yield self.violation(
                        source, node,
                        f"import-time import of {module} — import it "
                        f"inside the function that needs it, so runs "
                        f"that never take that path do not load it",
                    )
