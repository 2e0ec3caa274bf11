"""Property tests for the whole-program flow layer.

Two never-crash/shape contracts, pinned with hypothesis:

* **ProjectIndex** — for any randomly generated module graph (random
  defs, classes, call targets, imports, star-imports, cycles), building
  the index never raises, every resolved edge points at a function the
  index knows, the reverse graph inverts the forward one, and a rebuild
  from the same sources is bit-identical (determinism).
* **CFG** — for any randomly generated function body, ``build_cfg``
  never raises, every successor id is a known node or synthetic exit,
  some exit is reachable from the entry, and every recorded exception
  source actually carries an edge toward the raise exit's direction.
"""

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from spclint.core import SourceFile
from spclint.flow.cfg import EXIT_RAISE, EXIT_RETURN, build_cfg
from spclint.flow.project import ProjectIndex

# ---------------------------------------------------------------------------
# random module graphs
# ---------------------------------------------------------------------------

FN_NAMES = ["alpha", "beta", "gamma", "delta", "run", "_hidden"]
MOD_NAMES = ["one", "two", "three"]


@st.composite
def module_graphs(draw):
    """{path: source_text} for a random package of a few modules."""
    files = {"pkg/__init__.py": ""}
    n_modules = draw(st.integers(min_value=1, max_value=3))
    modules = MOD_NAMES[:n_modules]
    for mod in modules:
        lines = []
        # imports: plain, aliased, and the occasional star (cycles ok)
        for other in draw(st.lists(st.sampled_from(modules),
                                   max_size=2, unique=True)):
            style = draw(st.sampled_from(["from", "star", "module"]))
            if style == "from":
                lines.append(f"from pkg.{other} import {FN_NAMES[0]}")
            elif style == "star":
                lines.append(f"from pkg.{other} import *")
            else:
                lines.append(f"import pkg.{other}")
        names = draw(st.lists(st.sampled_from(FN_NAMES),
                              min_size=1, max_size=4, unique=True))
        for name in names:
            lines.append(f"def {name}():")
            body = []
            for target in draw(st.lists(st.sampled_from(FN_NAMES),
                                        max_size=2)):
                call_style = draw(st.sampled_from(["bare", "qualified"]))
                if call_style == "bare":
                    body.append(f"    {target}()")
                else:
                    other = draw(st.sampled_from(modules))
                    body.append(f"    pkg.{other}.{target}()")
            if draw(st.booleans()):
                body.append("    raise ValueError()")
            body.append("    return 0")
            lines.extend(body)
        files[f"pkg/{mod}.py"] = "\n".join(lines) + "\n"
    return files


def parse_all(files):
    return {path: SourceFile(path, text, ast.parse(text, filename=path))
            for path, text in files.items()}


@settings(max_examples=80, deadline=None)
@given(files=module_graphs())
def test_index_never_crashes_and_edges_resolve(files):
    index = ProjectIndex.build(parse_all(files))
    known = set(index.functions)
    edges = index.edges()
    assert set(edges) == known
    for caller, callees in edges.items():
        for callee in callees:
            assert callee in known
            assert callee != caller          # self-edges are dropped
        assert callees == sorted(set(callees))


@settings(max_examples=50, deadline=None)
@given(files=module_graphs())
def test_index_rebuild_is_deterministic(files):
    first = ProjectIndex.build(parse_all(files))
    second = ProjectIndex.build(parse_all(files))
    assert sorted(first.functions) == sorted(second.functions)
    assert first.edges() == second.edges()
    assert first.callers() == second.callers()
    assert first.can_raise() == second.can_raise()


@settings(max_examples=50, deadline=None)
@given(files=module_graphs())
def test_reverse_graph_inverts_forward(files):
    index = ProjectIndex.build(parse_all(files))
    forward = index.edges()
    reverse = index.callers()
    rebuilt = {}
    for caller, callees in forward.items():
        for callee in callees:
            rebuilt.setdefault(callee, set()).add(caller)
    assert {k: sorted(v) for k, v in rebuilt.items()} == reverse


# ---------------------------------------------------------------------------
# random function bodies
# ---------------------------------------------------------------------------

@st.composite
def function_bodies(draw, depth=0):
    """A list of statement strings at one indentation level."""
    simple = st.sampled_from([
        "x = 1",
        "x += 2",
        "call(x)",
        "yield from wait(x)",
        "return x",
        "raise ValueError(x)",
        "assert x",
        "pass",
    ])
    stmts = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(
            ["simple"] * 4 + (["if", "while", "try", "with", "for"]
                              if depth < 2 else ["simple"])))
        if kind == "simple":
            stmts.append(draw(simple))
        elif kind == "if":
            body = draw(function_bodies(depth=depth + 1))
            stmts.append("if x:")
            stmts.extend("    " + s for s in body)
            if draw(st.booleans()):
                stmts.append("else:")
                stmts.extend("    " + s
                             for s in draw(function_bodies(depth=depth + 1)))
        elif kind == "while":
            body = draw(function_bodies(depth=depth + 1))
            stmts.append("while x:")
            stmts.extend("    " + s for s in body)
            if draw(st.booleans()):
                stmts.append("    break")
        elif kind == "for":
            stmts.append("for i in items:")
            stmts.extend("    " + s
                         for s in draw(function_bodies(depth=depth + 1)))
            if draw(st.booleans()):
                stmts.append("    continue")
        elif kind == "with":
            stmts.append("with ctx() as c:")
            stmts.extend("    " + s
                         for s in draw(function_bodies(depth=depth + 1)))
        else:  # try
            stmts.append("try:")
            stmts.extend("    " + s
                         for s in draw(function_bodies(depth=depth + 1)))
            handler = draw(st.sampled_from(
                ["except Exception:", "except ValueError:", "except:"]))
            stmts.append(handler)
            stmts.extend("    " + s
                         for s in draw(function_bodies(depth=depth + 1)))
            if draw(st.booleans()):
                stmts.append("finally:")
                stmts.extend("    " + s
                             for s in draw(function_bodies(depth=depth + 1)))
    return stmts


@st.composite
def random_functions(draw):
    body = draw(function_bodies())
    text = "def f(x, items):\n" + "\n".join("    " + s for s in body) + "\n"
    return ast.parse(text).body[0]


@settings(max_examples=150, deadline=None)
@given(func=random_functions())
def test_cfg_never_crashes_and_is_well_formed(func):
    cfg = build_cfg(func)
    known = set(cfg.stmts) | set(cfg.succ) | {EXIT_RETURN, EXIT_RAISE}
    for node, successors in cfg.succ.items():
        assert node in known
        for nxt in successors:
            assert nxt in known
    # Exits never have successors.
    assert cfg.succ[EXIT_RETURN] == set()
    assert cfg.succ[EXIT_RAISE] == set()


@settings(max_examples=150, deadline=None)
@given(func=random_functions())
def test_some_exit_reachable_from_entry(func):
    cfg = build_cfg(func)
    seen = set()
    queue = [cfg.entry]
    while queue:
        node = queue.pop()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(cfg.successors(node))
    assert seen & {EXIT_RETURN, EXIT_RAISE}


@settings(max_examples=100, deadline=None)
@given(func=random_functions())
def test_exception_sources_have_multiple_departures(func):
    """A statement marked as an exception source carries its normal
    edge *plus* an exception route — it can never be a dead end."""
    cfg = build_cfg(func)
    for node_id in cfg.exception_sources:
        assert cfg.successors(node_id), \
            f"exception source {node_id} has no successors"


@settings(max_examples=100, deadline=None)
@given(func=random_functions(), data=st.data())
def test_find_path_returns_real_paths(func, data):
    """Any path find_path returns walks actual CFG edges to an exit."""
    cfg = build_cfg(func)
    stmt_ids = sorted(cfg.stmts)
    if not stmt_ids:
        return
    start = data.draw(st.sampled_from(stmt_ids))
    path = cfg.find_path(start, lambda n: False)
    if path is None:
        return
    assert path[0] == start
    assert cfg.is_exit(path[-1])
    for here, there in zip(path, path[1:]):
        assert there in cfg.successors(here)
