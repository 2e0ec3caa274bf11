"""Per-function control-flow graphs with exception edges.

The CFG is statement-granular: every statement of a function body is a
node, plus two synthetic exits (``EXIT_RETURN`` for returns and normal
fall-off, ``EXIT_RAISE`` for exceptions escaping the function) and one
synthetic *dispatch* node per ``finally`` block (the join through which
normal, returning, and raising paths all leave the block).

**Exception edges** are the point of the exercise, and they are
deliberately calibrated to this codebase's failure model rather than
"any call can raise" (which would flag every span in the tree):

* an explicit ``raise`` or ``assert``;
* any statement containing ``yield`` / ``yield from`` / ``await`` —
  in a discrete-event simulation these are exactly the points where
  failure enters a function: the event being waited on fails (an
  aborted transfer, a crashed server) and the exception materializes
  *at the yield*, or the process is killed and ``GeneratorExit`` does;
* when the builder is given the project's can-raise predicate (the
  lifecycle passes always give it), any statement whose call resolves —
  through the project call graph — to a function that transitively
  contains a ``raise``.

An exception edge routes to the innermost enclosing handler set; a
handler catching ``Exception``/``BaseException`` (or bare) absorbs it,
narrower handlers also let it continue outward through any ``finally``
blocks to the next level, ultimately ``EXIT_RAISE``.  ``finally``
semantics are approximated by the shared dispatch node — path-kinds
(normal vs raising) conflate *inside* the block, but continuations out
of the dispatch are only added when some path of that kind actually
entered it, which keeps the approximation from inventing raise paths in
exception-free code.

Known, accepted imprecision: ``break``/``continue`` jump directly to
their loop edge without threading intervening ``finally`` blocks, and
loop conditions are treated as always-exitable (``while True`` gets a
fall-through edge).  Both over-approximate reachability, never
under-approximate it, so path checks built on this CFG may rarely
over-report but never miss an edge that exists.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

#: Synthetic node ids.  Real statements get non-negative ids.
EXIT_RETURN = -1
EXIT_RAISE = -2

_BROAD_HANDLERS = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    node = handler.type
    if isinstance(node, ast.Name):
        return node.id in _BROAD_HANDLERS
    if isinstance(node, ast.Tuple):
        return any(isinstance(e, ast.Name) and e.id in _BROAD_HANDLERS
                   for e in node.elts)
    return False


def _own_expressions(stmt: ast.stmt) -> List[ast.AST]:
    """Expressions evaluated *by this statement itself* (not by nested
    statements, which are their own CFG nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
        return [stmt.subject]
    return [stmt]


def _contains_suspension(exprs: Iterable[ast.AST]) -> bool:
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                return True
    return False


def _calls_in(exprs: Iterable[ast.AST]) -> Iterable[ast.Call]:
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node


class _TryFrame:
    """One enclosing ``try`` during the build: routing context."""

    __slots__ = ("handler_ids", "absorbing", "finally_entry", "dispatch",
                 "pending", "enclosing", "routed_raise", "routed_return")

    def __init__(self, handler_ids: List[int], absorbing: bool,
                 finally_entry: Optional[int], dispatch: Optional[int],
                 enclosing: Tuple["_TryFrame", ...]):
        self.handler_ids = handler_ids
        self.absorbing = absorbing
        self.finally_entry = finally_entry      # entry of finalbody
        self.dispatch = dispatch                # its exit join node
        self.pending: Set[int] = set()          # extra dispatch successors
        self.enclosing = enclosing
        self.routed_raise = False
        self.routed_return = False


class CFG:
    """The built graph: statements, successors, exception sources."""

    def __init__(self, func: ast.AST):
        self.func = func
        #: node id -> AST statement (synthetic nodes absent)
        self.stmts: Dict[int, ast.stmt] = {}
        self.succ: Dict[int, Set[int]] = {EXIT_RETURN: set(),
                                          EXIT_RAISE: set()}
        #: ids of statements that carry an exception edge
        self.exception_sources: Set[int] = set()
        self.entry: int = EXIT_RETURN
        #: id of each statement node, for callers holding AST nodes
        self.ids: Dict[ast.stmt, int] = {}

    def successors(self, node_id: int) -> Set[int]:
        return self.succ.get(node_id, set())

    def is_exit(self, node_id: int) -> bool:
        return node_id in (EXIT_RETURN, EXIT_RAISE)

    def find_path(self, start: int, stop: Callable[[int], bool],
                  ) -> Optional[List[int]]:
        """Shortest path (BFS) from *start* to any exit, never expanding
        through nodes where ``stop(id)`` is true.  Returns the node-id
        path ending at the exit, or None if every path is stopped."""
        if stop(start):
            return None
        parents: Dict[int, Optional[int]] = {start: None}
        queue = [start]
        while queue:
            current = queue.pop(0)
            if self.is_exit(current):
                path = [current]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            for nxt in self.successors(current):
                if nxt in parents or stop(nxt):
                    continue
                parents[nxt] = current
                queue.append(nxt)
        return None


class _Builder:
    def __init__(self, func: ast.AST,
                 raising_call: Optional[Callable[[ast.Call], bool]] = None):
        self.cfg = CFG(func)
        self.raising_call = raising_call
        self._next_id = 0
        self._frames_made: List[_TryFrame] = []

    # -- node allocation ---------------------------------------------------------

    def _new_node(self, stmt: Optional[ast.stmt]) -> int:
        node_id = self._next_id
        self._next_id += 1
        self.cfg.succ.setdefault(node_id, set())
        if stmt is not None:
            self.cfg.stmts[node_id] = stmt
            self.cfg.ids[stmt] = node_id
        return node_id

    def _link(self, src: int, dst: int) -> None:
        self.cfg.succ.setdefault(src, set()).add(dst)
        self.cfg.succ.setdefault(dst, set())

    # -- exception routing ---------------------------------------------------------

    def _is_source(self, stmt: ast.stmt) -> bool:
        exprs = _own_expressions(stmt)
        if isinstance(stmt, ast.Assert):
            return True
        if _contains_suspension(exprs):
            return True
        if self.raising_call is not None:
            return any(self.raising_call(call) for call in _calls_in(exprs))
        return False

    def _route_raise(self, link: Callable[[int], None],
                     frames: Tuple[_TryFrame, ...]) -> None:
        """Connect an exception source (via *link*) to where it lands."""
        stack = list(frames)
        while stack:
            frame = stack.pop()
            if frame.handler_ids:
                for handler_id in frame.handler_ids:
                    link(handler_id)
                if frame.absorbing:
                    return
            if frame.finally_entry is not None:
                link(frame.finally_entry)
                if not frame.routed_raise:
                    frame.routed_raise = True
                    self._route_raise(frame.pending.add, frame.enclosing)
                return      # continuation now emanates from the dispatch
        link(EXIT_RAISE)

    def _route_return(self, link: Callable[[int], None],
                      frames: Tuple[_TryFrame, ...]) -> None:
        for frame in reversed(frames):
            if frame.finally_entry is not None:
                link(frame.finally_entry)
                if not frame.routed_return:
                    frame.routed_return = True
                    self._route_return(frame.pending.add, frame.enclosing)
                return
        link(EXIT_RETURN)

    # -- block construction --------------------------------------------------------

    def build(self) -> CFG:
        body = getattr(self.cfg.func, "body", [])
        self.cfg.entry = self._block(body, EXIT_RETURN, (), None)
        for frame in self._frames_made:
            if frame.dispatch is not None:
                for target in frame.pending:
                    self._link(frame.dispatch, target)
        return self.cfg

    def _block(self, stmts: List[ast.stmt], after: int,
               frames: Tuple[_TryFrame, ...],
               loop: Optional[Tuple[int, int]]) -> int:
        """Wire a statement list; returns its entry (or *after* if empty).
        ``loop`` is (header_id, exit_id) of the innermost loop."""
        entry = after
        for stmt in reversed(stmts):
            entry = self._stmt(stmt, entry, frames, loop)
        return entry

    def _stmt(self, stmt: ast.stmt, nxt: int,
              frames: Tuple[_TryFrame, ...],
              loop: Optional[Tuple[int, int]]) -> int:
        node_id = self._new_node(stmt)

        if isinstance(stmt, ast.Return):
            self._route_return(lambda t: self._link(node_id, t), frames)
        elif isinstance(stmt, ast.Raise):
            self._route_raise(lambda t: self._link(node_id, t), frames)
        elif isinstance(stmt, ast.Break):
            self._link(node_id, loop[1] if loop is not None else nxt)
        elif isinstance(stmt, ast.Continue):
            self._link(node_id, loop[0] if loop is not None else nxt)
        elif isinstance(stmt, ast.If):
            self._link(node_id, self._block(stmt.body, nxt, frames, loop))
            self._link(node_id, self._block(stmt.orelse, nxt, frames, loop))
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            body_entry = self._block(stmt.body, node_id, frames,
                                     (node_id, nxt))
            self._link(node_id, body_entry)
            self._link(node_id, self._block(stmt.orelse, nxt, frames, loop))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._link(node_id, self._block(stmt.body, nxt, frames, loop))
        elif isinstance(stmt, ast.Try):
            self._try(stmt, node_id, nxt, frames, loop)
        elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            for case in stmt.cases:
                self._link(node_id, self._block(case.body, nxt, frames, loop))
            self._link(node_id, nxt)        # no case matched
        else:
            self._link(node_id, nxt)

        if self._is_source(stmt):
            self.cfg.exception_sources.add(node_id)
            self._route_raise(lambda t: self._link(node_id, t), frames)
        return node_id

    def _try(self, stmt: ast.Try, node_id: int, nxt: int,
             frames: Tuple[_TryFrame, ...],
             loop: Optional[Tuple[int, int]]) -> None:
        # finally: its body joins on a dispatch node whose successors
        # depend on which kinds of paths actually entered it.
        dispatch: Optional[int] = None
        finally_entry: Optional[int] = None
        finally_frame_tuple = frames
        if stmt.finalbody:
            dispatch = self._new_node(None)
            self._link(dispatch, nxt)       # normal continuation
            finally_only = _TryFrame([], False, None, None, frames)
            finally_entry = self._block(stmt.finalbody, dispatch,
                                        frames, loop)
            finally_frame = _TryFrame([], False, finally_entry, dispatch,
                                      frames)
            self._frames_made.append(finally_frame)
            finally_frame_tuple = frames + (finally_frame,)
            del finally_only

        after_body = finally_entry if finally_entry is not None else nxt

        # handlers: exceptions inside a handler body route past this
        # try's handlers but still through its finally.
        handler_ids: List[int] = []
        absorbing = False
        for handler in stmt.handlers:
            handler_id = self._new_node(handler)
            handler_ids.append(handler_id)
            body_entry = self._block(handler.body, after_body,
                                     finally_frame_tuple, loop)
            self._link(handler_id, body_entry)
            if _is_broad(handler):
                absorbing = True

        body_frame = _TryFrame(
            handler_ids, absorbing,
            finally_entry, dispatch,
            frames,
        )
        self._frames_made.append(body_frame)
        body_frames = frames + (body_frame,)

        orelse_entry = self._block(stmt.orelse, after_body,
                                   finally_frame_tuple, loop)
        body_entry = self._block(stmt.body, orelse_entry, body_frames, loop)
        self._link(node_id, body_entry)


def build_cfg(func: ast.AST,
              raising_call: Optional[Callable[[ast.Call], bool]] = None,
              ) -> CFG:
    """Build the CFG of one function (or module) body.

    *raising_call*, when given, marks statements whose calls it accepts
    as additional exception sources (the interprocedural can-raise
    predicate from the project index).
    """
    return _Builder(func, raising_call).build()
