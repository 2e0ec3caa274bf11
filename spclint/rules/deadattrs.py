"""SPC005 — private instance attributes assigned in ``__init__`` but
never read.

The ``_explore_cursor`` class of rot (removed in PR 1): state that was
once load-bearing survives a refactor as a write-only field, and every
future reader burns time deciding whether it matters.  The rule flags a
``self._name = ...`` in ``__init__`` when ``_name`` is never *loaded*
anywhere in the module — not read by a method, not returned by a
property, not referenced as a string (``getattr``/``__slots__``).

Only private, non-dunder names are considered: public attributes are a
class's API and are routinely read from other modules, which a
single-file analysis cannot see.  A private attribute genuinely read
from outside its module is exotic enough to deserve the explicit
``# spectra: noqa[SPC005]`` it takes to keep it.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..core import Rule, SourceFile, Violation, register_rule


def _init_self_assigns(cls: ast.ClassDef) -> List[Tuple[str, ast.AST]]:
    """(attr name, assignment node) for ``self.X = ...`` in __init__."""
    assigns: List[Tuple[str, ast.AST]] = []
    for item in cls.body:
        if not (isinstance(item, ast.FunctionDef)
                and item.name == "__init__"):
            continue
        for node in ast.walk(item):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    assigns.append((target.attr, node))
    return assigns


def _module_reads(tree: ast.AST) -> Set[str]:
    """Every attribute name the module loads, deletes, or names as text."""
    reads: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, (ast.Load, ast.Del)):
                reads.add(node.attr)
            # AugStore reads before writing: `self.x += 1` uses x.
            elif isinstance(node.ctx, ast.Store):
                pass
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute):
            reads.add(node.target.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # getattr(self, "_x"), __slots__, f-string debugging, etc.
            reads.add(node.value)
    return reads


@register_rule
class DeadAttributeRule(Rule):
    code = "SPC005"
    name = "no-dead-attributes"
    description = ("private attributes assigned in __init__ but never "
                   "read anywhere in the module")
    scope = ("src/repro",)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        reads = _module_reads(source.tree)
        for cls in ast.walk(source.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            seen: Set[str] = set()
            for attr, node in _init_self_assigns(cls):
                if attr in seen:
                    continue
                seen.add(attr)
                if not attr.startswith("_") or attr.startswith("__"):
                    continue
                if attr in reads:
                    continue
                yield self.violation(
                    source, node,
                    f"{cls.name}.{attr} is assigned in __init__ but never "
                    f"read in this module — dead state",
                )
