"""Golden tests for SPC102 and SPC105 through a sweep of a tree on disk.

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
    ``repro.*`` modules and each rule's ``src/repro`` scope applies
    unchanged.  Returns the tree's root.
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
        assert "closed by hand" in found[0].message

    def test_abort_leak_shape_is_flagged(self, tmp_path):
        # The abort_fidelity_op leak: a span bound to a name, a yield,
        # then an exception exit before the hand-written end.
        root = write_fixture(tmp_path, {
            "core/client.py": """\
                class Client:
                    def abort_fidelity_op(self, handle):
                        span = self.tracer.start_span("abort", opid=handle.opid)
                        yield self.cpu.submit(handle.cycles).done
                        if handle.failed:
                            raise RuntimeError("server lost")
                        span.end()
            """,
        })
        found = sweep(root, ["SPC102"])
        assert [(v.rule, v.line) for v in found] == [("SPC102", 3)]
        assert "abort_fidelity_op" in found[0].message

    def test_with_is_clean_and_try_finally_is_not(self, tmp_path):
        root = write_fixture(tmp_path, {
            "sim/clean.py": """\
                def managed(tracer, network):
                    with tracer.start_span("op") as span:
                        yield from network.transfer(100)
                        span.end(bytes=100)


                def closed_in_finally(tracer, network):
                    span = tracer.start_span("op")
                    try:
                        yield from network.transfer(100)
                    finally:
                        span.end()
            """,
        })
        found = sweep(root, ["SPC102"])
        # A finally closes this span, but only the `with` shape is
        # paired by construction.
        assert [v.line for v in found] == [8]

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
        assert "can leak it" in found[0].message


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
        # still checked.
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
