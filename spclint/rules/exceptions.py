"""SPC006 — no swallowed broad excepts on the hot paths.

The solver, RPC layer, and simulation kernel are the code that *must*
fail loudly: a swallowed ``AttributeError`` inside a monitor's predict
path does not crash the run — it feeds the solver a fabricated
availability estimate, and the experiment finishes with quietly wrong
numbers.  The rule flags ``except Exception`` / ``except BaseException``
in the hot-path packages whose handler neither re-raises nor uses the
caught exception object (``as exc`` that the body actually references,
e.g. to record, wrap, or route it as a failure value).  A bare
``except:`` is ruff's E722, which CI's lint job runs over ``src tests
spclint``.

Catching a *narrow* exception and substituting a fallback is normal
control flow and never fires.  A broad catch that genuinely must eat
everything (a top-level experiment harness, say) takes a
``# spectra: noqa[SPC006]`` with its justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Rule, SourceFile, Violation, register_rule

BROAD = {"Exception", "BaseException"}


def _is_broad(handler_type: ast.AST) -> bool:
    if isinstance(handler_type, ast.Name):
        return handler_type.id in BROAD
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


def _body_raises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise)
               for node in ast.walk(handler))


def _body_uses_exception(handler: ast.ExceptHandler) -> bool:
    if handler.name is None:
        return False
    for node in ast.walk(handler):
        if isinstance(node, ast.Name) and node.id == handler.name \
                and isinstance(node.ctx, ast.Load):
            return True
    return False


@register_rule
class SwallowedExceptRule(Rule):
    code = "SPC006"
    name = "no-swallowed-except"
    description = ("broad except Exception that neither re-raises nor "
                   "uses the exception on hot paths")
    scope = ("src/repro",)
    #: packages where broad-and-silent catches are banned
    HOT_PATHS = ("src/repro/solver", "src/repro/rpc", "src/repro/sim",
                 "src/repro/core", "src/repro/monitors")

    def check(self, source: SourceFile) -> Iterator[Violation]:
        if not any(fragment in source.posix_path
                   for fragment in self.HOT_PATHS):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler) \
                    or not _is_broad(node.type):
                continue
            if _body_raises(node) or _body_uses_exception(node):
                continue
            yield self.violation(
                source, node,
                "broad except swallows the exception on a hot path — "
                "catch the specific error, re-raise, or route the "
                "exception object onward",
            )
