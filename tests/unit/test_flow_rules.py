"""Golden tests for the whole-program SPC1xx pack.

Each test lays out a small fixture package on disk (``tmp_path``), runs
the sweep over it with a private parse cache, and asserts the
exact findings — both the positives (the planted defect is reported,
once, at the right place) and the negatives (the clean twin of the
same shape stays silent).  Fixture sources live in this module as
strings, *not* as ``.py`` files under ``tests/``: the repo's own lint
gate sweeps ``tests/`` and deliberately-broken fixtures must never
show up in it.
"""

import textwrap

from spclint.cache import ParseCache
from spclint.engine import analyze_paths


def write_fixture(tmp_path, files):
    """Materialize {path under src/repro: source} as a package tree.

    Every directory becomes a package, so the fixture indexes as
    ``repro.*`` modules: each rule's ``src/repro`` scope and SPC101's
    entry packages (``repro.sim``, ``repro.core``) apply unchanged.
    Returns the tree's root.
    """
    package = tmp_path / "src" / "repro"
    for rel, text in files.items():
        full = package / rel
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(textwrap.dedent(text))
    for directory in [package, *package.rglob("*")]:
        init = directory / "__init__.py"
        if directory.is_dir() and not init.exists():
            init.write_text("")
    return tmp_path


def sweep(root, select):
    """Sweep *root* with only the *select*-ed rules active."""
    return analyze_paths([str(root)], select=select, cache=ParseCache())


class TestSPC101DeterminismTaint:
    FILES = {
        "core/util.py": """\
            import time


            def read_clock():
                return time.time()


            def pure_add(a, b):
                return a + b
        """,
        "core/middle.py": """\
            from repro.core.util import pure_add, read_clock


            def helper():
                return read_clock() + 1.0


            def clean_helper(x):
                return pure_add(x, 1)
        """,
        "sim/entry.py": """\
            from repro.core.middle import clean_helper, helper


            def run_decision():
                return helper()


            def run_clean():
                return clean_helper(2)


            def _private_reaches_clock():
                return helper()
        """,
    }

    def taint(self, tmp_path, extra=None):
        files = dict(self.FILES)
        files.update(extra or {})
        root = write_fixture(tmp_path, files)
        return sweep(root, ["SPC101"])

    def test_tainted_public_entry_points_reported(self, tmp_path):
        found = self.taint(tmp_path)
        messages = {v.message for v in found}
        # The public entry points are flagged...
        assert any("repro.sim.entry.run_decision" in m for m in messages)
        assert any("repro.core.util.read_clock" in m for m in messages)
        assert any("repro.core.middle.helper" in m for m in messages)
        # ...with the chain and the source call spelled out.
        decision = next(m for m in messages if "run_decision" in m)
        assert "wall-clock call time.time()" in decision
        assert " -> " in decision

    def test_clean_paths_and_private_helpers_silent(self, tmp_path):
        found = self.taint(tmp_path)
        messages = {v.message for v in found}
        assert not any("run_clean" in m for m in messages)
        assert not any("_private_reaches_clock" in m for m in messages)

    def test_env_and_rng_sources_detected(self, tmp_path):
        found = self.taint(tmp_path, extra={
            "core/other.py": """\
                import os
                import random


                def dice():
                    return random.random()


                def whoami():
                    return os.environ["USER"]
            """,
        })
        messages = {v.message for v in found}
        assert any("global-state RNG call random.random()" in m
                   for m in messages)
        assert any("environment read os.environ" in m for m in messages)


class TestSPC102SpanPaths:
    def test_span_leaking_on_exception_edge(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/leaky.py": """\
                def leaky(tracer, network):
                    span = tracer.start_span("op")
                    yield from network.transfer(100)
                    span.end()
            """,
        })
        found = sweep(root, ["SPC102"])
        assert len(found) == 1
        assert found[0].rule == "SPC102"
        assert "span 'span'" in found[0].message
        assert "exception escaping" in found[0].message

    def test_try_finally_and_with_are_clean(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/clean.py": """\
                def closed_in_finally(tracer, network):
                    span = tracer.start_span("op")
                    try:
                        yield from network.transfer(100)
                    finally:
                        span.end()


                def managed(tracer, network):
                    with tracer.start_span("op") as span:
                        yield from network.transfer(100)
            """,
        })
        assert sweep(root, ["SPC102"]) == []

    def test_branch_closing_only_one_arm_leaks(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/branchy.py": """\
                def half_closed(tracer, flag):
                    span = tracer.start_span("op")
                    if flag:
                        span.end()
                    return flag
            """,
        })
        found = sweep(root, ["SPC102"])
        assert len(found) == 1
        assert "return or fall-through" in found[0].message

    def test_monitor_recording_leak_on_exception(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/monitors.py": """\
                def observed(monitors, network, recording):
                    monitors.start_all(recording)
                    yield from network.transfer(100)
                    monitors.stop_all(recording)
            """,
        })
        found = sweep(root, ["SPC102"])
        assert len(found) == 1
        assert "monitor recording" in found[0].message

    def test_interprocedural_raise_via_raising_calls(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/deep.py": """\
                def may_fail(x):
                    if x < 0:
                        raise ValueError(x)
                    return x


                def caller(tracer, x):
                    span = tracer.start_span("op")
                    value = may_fail(x)
                    span.end()
                    return value
            """,
        })
        # The plain call is not a raise or a yield, but its callee can
        # raise: the exception edge out of it leaks the span.
        found = sweep(root, ["SPC102"])
        assert len(found) == 1
        assert "span 'span'" in found[0].message
        assert "exception escaping at line 9" in found[0].message


class TestSPC103ResourcePairs:
    def test_acquire_release_leak_and_clean(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/locks.py": """\
                def leaky(lock, network):
                    lock.acquire()
                    yield from network.transfer(100)
                    lock.release()


                def clean(lock, network):
                    lock.acquire()
                    try:
                        yield from network.transfer(100)
                    finally:
                        lock.release()
            """,
        })
        found = sweep(root, ["SPC103"])
        assert len(found) == 1
        assert "lock.acquire()" in found[0].message
        assert "repro.sim.locks.leaky" in found[0].message

    def test_strict_open_without_any_close(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/noclose.py": """\
                def forgot(lock):
                    lock.acquire()
                    return 1
            """,
        })
        found = sweep(root, ["SPC103"])
        assert len(found) == 1
        assert "no matching release()" in found[0].message

    def test_cross_function_protocol_skipped(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/journal.py": """\
                def start(self, fault):
                    self.journal.apply(fault)


                def stop(self, fault):
                    self.journal.revert(fault)
            """,
        })
        # apply/revert split across functions: assumed cross-function,
        # not guessed at.
        assert sweep(root, ["SPC103"]) == []


class TestSPC105UnusedSuppressions:
    def test_stale_waiver_reported(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/stale.py": """\
                def add(a, b):
                    return a + b  # spectra: noqa[SPC001]
            """,
        })
        found = sweep(root, ["SPC001", "SPC105"])
        assert len(found) == 1
        assert found[0].rule == "SPC105"
        assert "SPC001" in found[0].message

    def test_active_waiver_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/active.py": """\
                import time


                def stamp():
                    return time.time()  # spectra: noqa[SPC001]
            """,
        })
        found = sweep(root, ["SPC001", "SPC105"])
        # The waiver suppresses the SPC001 finding and is itself used.
        assert found == []

    def test_unknown_code_always_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/unknown.py": """\
                def add(a, b):
                    return a + b  # spectra: noqa[SPC987]
            """,
        })
        found = sweep(root, ["SPC105"])
        assert len(found) == 1
        assert "unknown rule code" in found[0].message

    def test_waiver_for_inactive_rule_skipped(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/inactive.py": """\
                import time


                def stamp():
                    return time.time()  # spectra: noqa[SPC001]
            """,
        })
        # SPC001 did not run this sweep: the audit cannot judge the
        # waiver and must stay silent rather than cry stale.
        assert sweep(root, ["SPC105"]) == []


class TestDeepSweepRobustness:
    def test_syntax_error_file_does_not_break_deep_pass(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/broken.py": "def broken(:\n",
            "sim/leaky.py": """\
                def leaky(tracer, network):
                    span = tracer.start_span("op")
                    yield from network.transfer(100)
                    span.end()
            """,
        })
        found = sweep(root, ["SPC102"])
        rules = sorted(v.rule for v in found)
        # The unparseable file is its own finding; the parseable one is
        # still checked by the whole-program pack.
        assert rules == ["SPC102", "SPC999"]

    def test_inline_suppression_silences_deep_finding(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/waived.py": """\
                def leaky(tracer, network):
                    span = tracer.start_span("op")  # spectra: noqa[SPC102]
                    yield from network.transfer(100)
                    span.end()
            """,
        })
        assert sweep(root, ["SPC102"]) == []
