"""SPC102 — spans and monitor recordings are paired by construction.

The bug class behind the ``abort_fidelity_op`` leak: a span is opened
(``tracer.start_span(...)`` / ``span.child(...)``) or a recording
started (``monitors.start_all(recording)``), the function ``yield``s on
a simulated event that fails, and the exception leaves with it still
open.  Rather than prove that every exit path closes it, the rule asks
for shapes that close it by construction.  In ``src/repro`` a span
begin must be a ``with`` item (or bound to a name used as one),
chained straight into ``.end(...)``, or handed on: returned, yielded,
stored on an attribute or in a container, or passed to a call, whose
receiver owns the end.  A span bound to a name that stays in its
function is a finding even when the function ends it by hand.  A
``start_all(recording)`` needs a ``stop_all`` in the same function
unless ``recording`` is handed on the same way.  Nested functions and
classes are their own scopes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..core import Rule, SourceFile, Violation, register_rule

#: begin methods whose call result is the span to close
SPAN_BEGINS = frozenset({"start_span", "child"})

#: the recording verbs; passing a recording to them does not hand it on
RECORDING_VERBS = frozenset({"start_all", "stop_all"})

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
_CONTAINERS = (ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Starred)


def _verb(node: ast.AST) -> str:
    """The method name of a ``receiver.verb(...)`` call, else ``""``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of *scope* outside its nested functions and classes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _handed_on(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether the value of *node* leaves its function.

    Returned, yielded, a lambda's result, passed to a call other than a
    recording verb, or assigned to an attribute or subscript — directly
    or inside a tuple, list, set or dict literal.
    """
    parent = parents.get(node)
    while isinstance(parent, _CONTAINERS):
        node, parent = parent, parents.get(parent)
    if isinstance(parent, ast.keyword):
        node, parent = parent, parents.get(parent)
    if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Lambda)):
        return True
    if isinstance(parent, ast.Call):
        return node is not parent.func and _verb(parent) not in RECORDING_VERBS
    if isinstance(parent, ast.Assign) and node is parent.value:
        return any(isinstance(target, (ast.Attribute, ast.Subscript))
                   for target in parent.targets)
    if isinstance(parent, ast.AnnAssign) and node is parent.value:
        return isinstance(parent.target, (ast.Attribute, ast.Subscript))
    return False


@register_rule
class LifecyclePairingRule(Rule):
    code = "SPC102"
    name = "lifecycle-pairing"
    description = ("spans open as `with` items, chained into .end(), or "
                   "handed on; start_all has a stop_all or hands its "
                   "recording on")
    scope = ("src/repro",)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        scopes = [node for node in ast.walk(source.tree)
                  if isinstance(node, (ast.Module,) + _SCOPES)]
        for scope in scopes:
            yield from self._check_scope(source, scope)

    def _check_scope(self, source: SourceFile,
                     scope: ast.AST) -> Iterator[Violation]:
        parents = source.parents
        nodes = list(_own_nodes(scope))
        #: names handed on or used as `with` items: closed elsewhere
        owned_elsewhere: Set[str] = set()
        #: names receiving a `name.end(...)` call
        ended: Set[str] = set()
        stops_all = False
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if (_handed_on(node, parents)
                        or isinstance(parents.get(node), ast.withitem)):
                    owned_elsewhere.add(node.id)
            elif _verb(node) == "end":
                if isinstance(node.func.value, ast.Name):
                    ended.add(node.func.value.id)
            elif _verb(node) == "stop_all":
                stops_all = True

        where = getattr(scope, "name", type(scope).__name__.lower())
        for node in nodes:
            verb = _verb(node)
            if verb in SPAN_BEGINS:
                message = _span_finding(node, parents, owned_elsewhere, ended)
                if message:
                    yield self.violation(source, node, message.format(
                        what=f"from .{verb}(...) in {where}", where=where))
            elif verb == "start_all" and node.args and not stops_all:
                recording = node.args[0]
                if (isinstance(recording, ast.Name)
                        and recording.id not in owned_elsewhere):
                    yield self.violation(
                        source, node,
                        f"start_all({recording.id}) in {where} has no "
                        f"stop_all in this function, and {recording.id} "
                        f"never leaves it",
                    )


def _span_finding(call: ast.Call, parents: Dict[ast.AST, ast.AST],
                  owned_elsewhere: Set[str], ended: Set[str]) -> str:
    """The finding for one span begin, or ``""``; ``{what}`` and
    ``{where}`` are left for the caller to fill."""
    parent = parents.get(call)
    if isinstance(parent, ast.withitem) or _handed_on(call, parents):
        return ""
    if (isinstance(parent, ast.Attribute) and parent.attr == "end"
            and isinstance(parents.get(parent), ast.Call)):
        return ""
    if isinstance(parent, ast.Expr):
        return ("span {what} is dropped without .end() — chain .end() or "
                "use `with`")
    if not isinstance(parent, (ast.Assign, ast.AnnAssign)):
        return ("span {what} is neither a `with` item, chained into "
                ".end(), nor handed on")
    targets = (parent.targets if isinstance(parent, ast.Assign)
               else [parent.target])
    loose = [target.id for target in targets
             if isinstance(target, ast.Name)
             and target.id not in owned_elsewhere]
    if not loose:
        return ""
    if loose[0] in ended:
        return (f"span {loose[0]!r} in {{where}} is closed by hand, so an "
                f"exception or early exit can leak it — open it as a "
                f"`with` item")
    return (f"span {loose[0]!r} in {{where}} is started but never .end()ed "
            f"and never leaves this function — open it as a `with` item")
