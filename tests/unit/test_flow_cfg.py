"""Unit tests for the per-function CFG (spclint.flow.cfg).

The graph's contract, relied on by the SPC102/103 path checks:

* statement granularity, two synthetic exits (return vs raise);
* exception edges exactly at suspension points (yield/await), raises,
  asserts, and — with a predicate — calls into can-raise callees;
* ``try``/``except``/``finally`` routing: handlers catch, broad
  handlers absorb, ``finally`` runs on every route out;
* exception-free code gets **no** invented raise paths.
"""

import ast

from spclint.flow.cfg import EXIT_RAISE, EXIT_RETURN, build_cfg


def cfg_of(source, raising_call=None):
    tree = ast.parse(source)
    func = tree.body[0]
    return build_cfg(func, raising_call), func


def reachable_exits(cfg, start=None):
    """Which synthetic exits are reachable from *start* (or entry)."""
    seen = set()
    queue = [cfg.entry if start is None else start]
    while queue:
        node = queue.pop()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(cfg.successors(node))
    return {n for n in seen if cfg.is_exit(n)}


def stmt_id(cfg, func, lineno):
    for stmt, node_id in cfg.ids.items():
        if getattr(stmt, "lineno", None) == lineno:
            return node_id
    raise AssertionError(f"no statement at line {lineno}")


class TestLinearAndBranching:
    def test_straight_line_reaches_return_only(self):
        cfg, _ = cfg_of("def f(a):\n    b = a + 1\n    return b\n")
        assert reachable_exits(cfg) == {EXIT_RETURN}
        assert cfg.exception_sources == set()

    def test_if_else_both_arms_reach_exit(self):
        cfg, func = cfg_of(
            "def f(a):\n"
            "    if a:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        assert reachable_exits(cfg) == {EXIT_RETURN}
        # Both arms flow into the return.
        ret = stmt_id(cfg, func, 6)
        assert ret in cfg.successors(stmt_id(cfg, func, 3))
        assert ret in cfg.successors(stmt_id(cfg, func, 5))

    def test_fall_off_end_is_a_return(self):
        cfg, _ = cfg_of("def f(a):\n    a += 1\n")
        assert reachable_exits(cfg) == {EXIT_RETURN}

    def test_while_loop_back_edge_and_exit(self):
        cfg, func = cfg_of(
            "def f(n):\n"
            "    while n:\n"
            "        n -= 1\n"
            "    return n\n"
        )
        loop = stmt_id(cfg, func, 2)
        body = stmt_id(cfg, func, 3)
        assert loop in cfg.successors(body)          # back edge
        assert stmt_id(cfg, func, 4) in cfg.successors(loop)

    def test_break_and_continue_edges(self):
        cfg, func = cfg_of(
            "def f(items):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            break\n"
            "        continue\n"
            "    return 0\n"
        )
        loop = stmt_id(cfg, func, 2)
        after = stmt_id(cfg, func, 6)
        assert cfg.successors(stmt_id(cfg, func, 4)) == {after}
        assert cfg.successors(stmt_id(cfg, func, 5)) == {loop}


class TestExceptionEdges:
    def test_yield_is_an_exception_source(self):
        cfg, func = cfg_of(
            "def f(network):\n"
            "    yield from network.transfer(1)\n"
            "    return 1\n"
        )
        assert stmt_id(cfg, func, 2) in cfg.exception_sources
        assert reachable_exits(cfg) == {EXIT_RETURN, EXIT_RAISE}

    def test_raise_goes_only_to_raise_exit(self):
        cfg, func = cfg_of("def f():\n    raise ValueError()\n")
        assert cfg.successors(stmt_id(cfg, func, 2)) == {EXIT_RAISE}

    def test_plain_calls_are_not_sources_by_default(self):
        cfg, _ = cfg_of("def f(x):\n    g(x)\n    return x\n")
        assert cfg.exception_sources == set()
        assert reachable_exits(cfg) == {EXIT_RETURN}

    def test_raising_call_predicate_adds_sources(self):
        source = "def f(x):\n    g(x)\n    return x\n"
        cfg, func = cfg_of(source, raising_call=lambda call: True)
        assert stmt_id(cfg, func, 2) in cfg.exception_sources
        assert reachable_exits(cfg) == {EXIT_RETURN, EXIT_RAISE}

    def test_handler_catches_matching_route(self):
        cfg, func = cfg_of(
            "def f(network):\n"
            "    try:\n"
            "        yield from network.transfer(1)\n"
            "    except ValueError:\n"
            "        pass\n"
            "    return 1\n"
        )
        # The yield's exception edge enters the handler, not the exit —
        # but a narrow handler does not absorb, so EXIT_RAISE stays
        # reachable for the exception types it does not match.
        yielded = stmt_id(cfg, func, 3)
        handler_body = stmt_id(cfg, func, 5)
        reached = set()
        queue = [yielded]
        while queue:
            node = queue.pop()
            if node in reached:
                continue
            reached.add(node)
            queue.extend(cfg.successors(node))
        assert handler_body in reached
        assert EXIT_RAISE in reachable_exits(cfg)

    def test_broad_handler_absorbs(self):
        cfg, _ = cfg_of(
            "def f(network):\n"
            "    try:\n"
            "        yield from network.transfer(1)\n"
            "    except Exception:\n"
            "        pass\n"
            "    return 1\n"
        )
        assert reachable_exits(cfg) == {EXIT_RETURN}


class TestFinallyRouting:
    def test_finally_runs_on_exception_route(self):
        cfg, func = cfg_of(
            "def f(network, span):\n"
            "    try:\n"
            "        yield from network.transfer(1)\n"
            "    finally:\n"
            "        span.end()\n"
            "    return 1\n"
        )
        # Every path from the yield to EXIT_RAISE passes the finally.
        yielded = stmt_id(cfg, func, 3)
        closer = stmt_id(cfg, func, 5)
        leak = cfg.find_path(yielded, lambda n: n == closer)
        assert leak is None
        assert EXIT_RAISE in reachable_exits(cfg)

    def test_finally_runs_on_return_route(self):
        cfg, func = cfg_of(
            "def f(span):\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        span.end()\n"
        )
        ret = stmt_id(cfg, func, 3)
        closer = stmt_id(cfg, func, 5)
        assert cfg.find_path(ret, lambda n: n == closer) is None
        assert reachable_exits(cfg) == {EXIT_RETURN}

    def test_exception_free_try_finally_has_no_raise_path(self):
        cfg, _ = cfg_of(
            "def f(span):\n"
            "    try:\n"
            "        x = 1\n"
            "    finally:\n"
            "        span.end()\n"
            "    return x\n"
        )
        # No exception source anywhere: the finally must not invent a
        # raise route (that is the SPC102 false-positive trap).
        assert reachable_exits(cfg) == {EXIT_RETURN}


class TestFindPath:
    def test_path_found_around_one_armed_close(self):
        cfg, func = cfg_of(
            "def f(span, flag):\n"
            "    span = span.start()\n"
            "    if flag:\n"
            "        span.end()\n"
            "    return flag\n"
        )
        start = stmt_id(cfg, func, 2)
        closer = stmt_id(cfg, func, 4)
        path = cfg.find_path(start, lambda n: n == closer)
        assert path is not None
        assert path[-1] == EXIT_RETURN
        assert closer not in path

    def test_no_path_when_every_route_stopped(self):
        cfg, func = cfg_of(
            "def f(span):\n"
            "    span = span.start()\n"
            "    span.end()\n"
            "    return 1\n"
        )
        start = stmt_id(cfg, func, 2)
        closer = stmt_id(cfg, func, 3)
        assert cfg.find_path(start, lambda n: n == closer) is None

    def test_start_at_stopped_node_is_none(self):
        cfg, func = cfg_of("def f():\n    x = 1\n    return x\n")
        start = stmt_id(cfg, func, 2)
        assert cfg.find_path(start, lambda n: n == start) is None


class TestWithAndMatch:
    def test_with_body_flows_through(self):
        cfg, _ = cfg_of(
            "def f(tracer):\n"
            "    with tracer.span('op'):\n"
            "        x = 1\n"
            "    return x\n"
        )
        assert EXIT_RETURN in reachable_exits(cfg)

    def test_match_arms_all_reach_exit(self):
        cfg, func = cfg_of(
            "def f(x):\n"
            "    match x:\n"
            "        case 1:\n"
            "            y = 'one'\n"
            "        case _:\n"
            "            y = 'many'\n"
            "    return y\n"
        )
        ret = stmt_id(cfg, func, 7)
        assert ret in cfg.successors(stmt_id(cfg, func, 4))
        assert ret in cfg.successors(stmt_id(cfg, func, 6))
