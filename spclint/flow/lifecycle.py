"""SPC102 — lifecycle pairing as a CFG path property.

The class of bug behind the ``abort_fidelity_op`` leak: a monitor set
is started (``monitors.start_all(recording)``) or a telemetry span
opened (``tracer.start_span(...)`` / ``span.child(...)``), and some
exit path leaves it running — the next operation is then forever
marked concurrent, or the trace carries a phantom open interval.  The
shape a lexical check structurally cannot see is the mid-operation
failure: a span is opened, the function ``yield``s on a simulated
event, the event fails, and the exception edge leaves the function
with the span still open.  In this codebase that is not a corner case —
it is the *normal* failure mode (every
``yield from self.network.transfer(...)`` is a potential abort) — so
SPC102 checks pairing as reachability over the :mod:`.cfg`
exception-edge CFG: a span begun (``start_span``/``child``/``span``)
or a monitor recording started (``start_all``) must be closed on every
path from the begin to any function exit, exception edges included.
A span that is never ended, a span result that is dropped, and a
``start_all(name)`` with no ``stop_all`` at all are reported without
a path search.

One escape scan (:class:`_FunctionScan`) decides what is the
function's to close: an object that leaves the function (returned,
stored on ``self``, passed to a callee) is somebody else's
responsibility, and a begin used as a ``with`` context manager is
paired by construction.  Path findings report the *witness line* — the
statement on the offending path where the un-closed exit happens.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Optional, Set, Tuple

from ..core import (
    ProjectRule,
    SourceFile,
    Violation,
    register_rule,
    resolve_call_path,
)
from .cfg import EXIT_RAISE, CFG, _own_expressions, build_cfg
from .project import FunctionInfo, ProjectIndex

#: begin methods whose *receiver-call result* is the tracked span
SPAN_BEGINS = frozenset({"start_span", "child", "span"})


def _call_attr(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class _FunctionScan:
    """Single pass over one function body collecting lifecycle facts."""

    def __init__(self, func: ast.AST):
        #: (name, node) of begin calls assigned to a simple name
        self.begins: List[Tuple[str, ast.Call]] = []
        #: begin calls used as bare expression statements (dropped result)
        self.dropped: List[ast.Call] = []
        #: start_all calls: (first-arg-name-or-None, node)
        self.start_alls: List[Tuple[Optional[str], ast.Call]] = []
        #: names receiving a `<name>.end(...)` call
        self.ended: Set[str] = set()
        #: whether any `.stop_all(...)` call appears
        self.stops_all = False
        #: names that escape the function (caller takes ownership)
        self.escaped: Set[str] = set()
        #: names whose begin call is a `with` context expression
        self.with_managed: Set[str] = set()
        #: call nodes appearing directly as `with <call>:` items, or
        #: chained straight into `.end()`
        self.with_calls: Set[ast.Call] = set()
        self._walk(func)

    def _walk(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            # Nested function/class bodies are separate scopes; their
            # begins are scanned in their own _FunctionScan pass.
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            self._visit(child)
            self._walk(child)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Return) and node.value is not None:
            self._mark_escapes(node.value)
        elif isinstance(node, ast.Assign):
            self._note_assign(node)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            # e.g. `tracer.start_span(...)` with its result dropped; a
            # chained `.end()` marks the call self-paired instead.
            if _call_attr(node.value) in SPAN_BEGINS:
                self.dropped.append(node.value)
        elif isinstance(node, ast.Call):
            self._note_call(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    self.with_calls.add(expr)
                elif isinstance(expr, ast.Name):
                    self.with_managed.add(expr.id)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value:
            self._mark_escapes(node.value)

    def _note_assign(self, node: ast.Assign) -> None:
        value = node.value
        # Storing a name onto an attribute/container (self.x = span,
        # spans[k] = span) hands ownership elsewhere — escapes.
        if any(isinstance(t, (ast.Attribute, ast.Subscript))
               for t in node.targets):
            self._mark_escapes(value)
        if isinstance(value, ast.Call) and _call_attr(value) in SPAN_BEGINS:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.begins.append((target.id, value))

    def _note_call(self, call: ast.Call) -> None:
        attr = _call_attr(call)
        if attr == "start_all":
            arg = call.args[0] if call.args else None
            name = arg.id if isinstance(arg, ast.Name) else None
            self.start_alls.append((name, call))
        elif attr == "stop_all":
            self.stops_all = True
        elif attr == "end" and isinstance(call.func, ast.Attribute):
            receiver = call.func.value
            if isinstance(receiver, ast.Name):
                self.ended.add(receiver.id)
            elif isinstance(receiver, ast.Call):
                # chained `tracer.start_span(...).end()` — begin+end in
                # one expression; mark the inner call as self-paired.
                self.with_calls.add(receiver)
        # Any name passed into a call other than the lifecycle verbs
        # escapes: the callee may own the end (e.g. _trace_decision).
        if attr not in ("start_all", "stop_all"):
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                self._mark_escapes(arg)

    def _mark_escapes(self, node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            self.escaped.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._mark_escapes(element)
        elif isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    self._mark_escapes(value)


def _stmt_id(cfg: CFG, source: SourceFile,
             node: ast.AST) -> Optional[int]:
    """CFG node id of the statement containing *node* (via parent map)."""
    current: Optional[ast.AST] = node
    while current is not None:
        found = cfg.ids.get(current)
        if found is not None:
            return found
        current = source.parents.get(current)
    return None


def _witness(cfg: CFG, path: List[int]) -> Tuple[str, int]:
    """(exit kind description, witness line) for a leaking path."""
    exit_node = path[-1]
    line = 0
    for node_id in reversed(path[:-1]):
        stmt = cfg.stmts.get(node_id)
        if stmt is not None:
            line = getattr(stmt, "lineno", 0)
            break
    if exit_node == EXIT_RAISE:
        return "an exception escaping", line
    return "a return or fall-through", line


class _PathChecker:
    """Shared machinery: build one CFG per function, answer leak queries."""

    def __init__(self, fn: FunctionInfo, index: ProjectIndex):
        self.fn = fn
        self.source = fn.source
        can_raise = index.can_raise()
        aliases = fn.source.aliases

        # A call into a project function that can raise is an exception
        # source, like a raise or a yield.
        def predicate(call: ast.Call) -> bool:
            path = resolve_call_path(call.func, aliases)
            if path is None:
                return False
            resolved = index.resolve(fn, path)
            return resolved is not None and resolved in can_raise

        self.cfg = build_cfg(fn.node, predicate)

    def leak_path(self, open_call: ast.AST,
                  closes: Callable[[ast.stmt], bool],
                  ) -> Optional[List[int]]:
        """Shortest exit-reaching path from the statement of *open_call*
        that passes no closing statement, or None if every path closes."""
        start = _stmt_id(self.cfg, self.source, open_call)
        if start is None:
            return None

        def stop(node_id: int) -> bool:
            stmt = self.cfg.stmts.get(node_id)
            return stmt is not None and closes(stmt)

        return self.cfg.find_path(start, stop)


def _stmt_contains(stmt: ast.stmt,
                   wanted: Callable[[ast.Call], bool]) -> bool:
    # Only this CFG node's own expressions count: an `if` whose *body*
    # holds the close call must not stop paths through its else branch
    # (the body statements are their own CFG nodes).
    for expr in _own_expressions(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call) and wanted(node):
                return True
    return False


def _closes_span(name: str) -> Callable[[ast.stmt], bool]:
    def check(stmt: ast.stmt) -> bool:
        return _stmt_contains(stmt, lambda call: (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "end"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == name))
    return check


def _closes_stop_all(stmt: ast.stmt) -> bool:
    return _stmt_contains(stmt, lambda call: (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "stop_all"))


@register_rule
class SpanPathRule(ProjectRule):
    code = "SPC102"
    name = "span-path-pairing"
    description = ("spans and monitor recordings must close on every "
                   "CFG path, exception edges included")
    scope = ("src/repro",)

    def check_project(self, project) -> Iterator[Violation]:
        index: ProjectIndex = project.index
        checked: Set[str] = set()
        for qname in sorted(index.functions):
            fn = index.functions[qname]
            if not self.applies_to(fn.source):
                continue
            # A def indexed under two qnames (first-wins collisions)
            # still only gets checked once per AST node.
            key = f"{fn.source.path}:{getattr(fn.node, 'lineno', 0)}"
            if key in checked:
                continue
            checked.add(key)
            yield from self.check_function(fn, index)

    def check_function(self, fn: FunctionInfo,
                       index: ProjectIndex) -> Iterator[Violation]:
        scan = _FunctionScan(fn.node)
        for call in scan.dropped:
            if call not in scan.with_calls:
                yield self.violation(
                    fn.source, call,
                    f"span from .{_call_attr(call)}(...) in {fn.qname} is "
                    f"dropped without .end() — bind it, chain .end(), or "
                    f"use `with`",
                )
        span_work: List[Tuple[str, ast.Call]] = []
        for name, call in scan.begins:
            if (call in scan.with_calls or name in scan.with_managed
                    or name in scan.escaped):
                continue
            if name in scan.ended:
                span_work.append((name, call))
                continue
            yield self.violation(
                fn.source, call,
                f"span {name!r} in {fn.qname} is started but never "
                f".end()ed and never leaves this function",
            )
        monitor_work: List[ast.Call] = []
        for arg_name, call in scan.start_alls:
            if arg_name is not None and arg_name in scan.escaped:
                continue
            if scan.stops_all:
                monitor_work.append(call)
            elif arg_name is not None:
                # A recording held in an attribute is owned elsewhere.
                yield self.violation(
                    fn.source, call,
                    f"start_all({arg_name}) in {fn.qname} has no matching "
                    f"stop_all on any path out of this function",
                )
        if not span_work and not monitor_work:
            return
        checker = _PathChecker(fn, index)
        for name, call in span_work:
            path = checker.leak_path(call, _closes_span(name))
            if path is None:
                continue
            kind, line = _witness(checker.cfg, path)
            yield self.violation(
                fn.source, call,
                f"span {name!r} in {fn.qname} leaks: {kind} at line "
                f"{line} exits without {name}.end() — close it in a "
                f"finally or use `with`",
            )
        for call in monitor_work:
            path = checker.leak_path(call, _closes_stop_all)
            if path is None:
                continue
            kind, line = _witness(checker.cfg, path)
            yield self.violation(
                fn.source, call,
                f"monitor recording in {fn.qname} leaks: {kind} at "
                f"line {line} exits without stop_all()",
            )
