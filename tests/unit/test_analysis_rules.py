"""Unit tests for the SPC rule pack: every rule gets a detection, a
clean pass, and a suppression case on fixture snippets."""

import textwrap

import pytest

from spclint import analyze_paths, analyze_source
from spclint.cache import ParseCache

#: Path under the default scope of every rule.
SRC = "src/repro/sim/fixture.py"


def lint(code, path=SRC, select=None):
    return analyze_source(path, textwrap.dedent(code), select=select)


def codes(violations):
    return [v.rule for v in violations]


def sweep(tmp_path, code):
    """Sweep *code* as the only file of a tree, SPC102 alone."""
    target = tmp_path / SRC
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return analyze_paths([str(tmp_path)], select=["SPC102"],
                         cache=ParseCache())


# -- SPC001: wall clock --------------------------------------------------------------


class TestWallClock:
    def test_detects_time_time(self):
        found = lint("""
            import time

            def stamp():
                return time.time()
        """, select=["SPC001"])
        assert codes(found) == ["SPC001"]
        assert "time.time" in found[0].message

    def test_detects_from_import_and_sleep(self):
        found = lint("""
            from time import perf_counter, sleep

            def wait():
                sleep(1.0)
                return perf_counter()
        """, select=["SPC001"])
        assert codes(found) == ["SPC001", "SPC001"]

    def test_detects_datetime_now(self):
        found = lint("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """, select=["SPC001"])
        assert codes(found) == ["SPC001"]

    def test_clean_sim_clock_passes(self):
        found = lint("""
            def stamp(sim):
                return sim.now
        """, select=["SPC001"])
        assert found == []

    def test_out_of_scope_file_passes(self):
        found = lint("""
            import time

            def stamp():
                return time.time()
        """, path="tools/script.py", select=["SPC001"])
        assert found == []

    def test_suppressed(self):
        found = lint("""
            import time

            def stamp():
                return time.time()  # spectra: noqa[SPC001] -- host profiling
        """, select=["SPC001"])
        assert found == []


# -- SPC002: unseeded randomness -----------------------------------------------------


class TestUnseededRandomness:
    def test_detects_module_level_random(self):
        found = lint("""
            import random

            def pick(items):
                return random.choice(items)
        """, select=["SPC002"])
        assert codes(found) == ["SPC002"]

    def test_detects_numpy_global_state(self):
        found = lint("""
            import numpy as np

            def draw():
                return np.random.random()
        """, select=["SPC002"])
        assert codes(found) == ["SPC002"]

    def test_detects_global_seed_call(self):
        found = lint("""
            import random

            def setup():
                random.seed(42)
        """, select=["SPC002"])
        assert codes(found) == ["SPC002"]

    def test_seeded_generator_passes(self):
        found = lint("""
            import random
            import numpy as np

            def draw(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random() + gen.random()
        """, select=["SPC002"])
        assert found == []

    def test_suppressed(self):
        found = lint("""
            import random

            def pick(items):
                return random.choice(items)  # spectra: noqa[SPC002]
        """, select=["SPC002"])
        assert found == []


# -- SPC102: lifecycle pairing ------------------------------------------------------


class TestLifecyclePairing:
    """The lexical pairing cases, checked by the whole-program SPC102.

    SPC102 runs only over a whole tree, so each snippet is written to a
    fixture file under the rule's scope and swept with
    :func:`analyze_paths`.
    """

    def test_detects_span_never_ended(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer):
                span = tracer.start_span("work")
                compute()
        """)
        assert codes(found) == ["SPC102"]
        assert "never .end()ed" in found[0].message

    def test_detects_dropped_span_result(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer):
                tracer.start_span("work")
        """)
        assert codes(found) == ["SPC102"]
        assert "dropped" in found[0].message

    def test_detects_early_return_leak(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer, fast):
                span = tracer.start_span("work")
                if fast:
                    return None
                compute()
                span.end()
        """)
        assert codes(found) == ["SPC102"]
        assert "leak" in found[0].message

    def test_detects_start_all_without_stop_all(self, tmp_path):
        found = sweep(tmp_path, """
            def run(monitors):
                recording = Recording()
                monitors.start_all(recording)
                compute()
        """)
        assert codes(found) == ["SPC102"]

    def test_paired_span_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer):
                span = tracer.start_span("work")
                compute()
                span.end()
        """)
        assert found == []

    def test_end_in_finally_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer, fast):
                span = tracer.start_span("work")
                try:
                    if fast:
                        return None
                    compute()
                finally:
                    span.end()
        """)
        assert found == []

    def test_with_statement_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer):
                with tracer.span("work"):
                    compute()
        """)
        assert found == []

    def test_chained_end_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def mark(tracer):
                tracer.start_span("tick").end()
        """)
        assert found == []

    def test_escaping_span_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def begin(tracer):
                span = tracer.start_span("op")
                return span
        """)
        assert found == []

    def test_span_passed_to_helper_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def begin(tracer):
                span = tracer.start_span("op")
                finish_later(span)
        """)
        assert found == []

    def test_escaping_recording_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def begin(monitors):
                recording = Recording()
                monitors.start_all(recording)
                return Handle(recording=recording)
        """)
        assert found == []

    def test_end_before_early_exit_passes(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer, bad):
                span = tracer.start_span("work")
                if bad:
                    span.end(error=True)
                    raise RuntimeError("bad")
                compute()
                span.end()
        """)
        assert found == []

    def test_suppressed(self, tmp_path):
        found = sweep(tmp_path, """
            def work(tracer):
                span = tracer.start_span("work")  # spectra: noqa[SPC102]
                compute()
        """)
        assert found == []


# -- SPC004: float equality ----------------------------------------------------------


class TestFloatEquality:
    def test_detects_float_literal_comparison(self):
        found = lint("""
            def check(watts):
                return watts == 0.0
        """, select=["SPC004"])
        assert codes(found) == ["SPC004"]

    def test_detects_float_inf_comparison(self):
        found = lint("""
            def unreachable(time_s):
                return time_s == float("inf")
        """, select=["SPC004"])
        assert codes(found) == ["SPC004"]

    def test_detects_measurement_name_pair(self):
        found = lint("""
            def same(predicted_energy, measured_energy):
                return predicted_energy != measured_energy
        """, select=["SPC004"])
        assert codes(found) == ["SPC004"]

    def test_integer_sentinel_passes(self):
        found = lint("""
            def check(retries, duration):
                return retries == 0 and duration == 0
        """, select=["SPC004"])
        assert found == []

    def test_ordering_comparison_passes(self):
        found = lint("""
            def check(elapsed_s):
                return elapsed_s <= 0.0
        """, select=["SPC004"])
        assert found == []

    def test_assert_exempt_by_default(self):
        found = lint("""
            def check(energy_j):
                assert energy_j == 12.5
        """, select=["SPC004"])
        assert found == []

    def test_suppressed(self):
        found = lint("""
            def check(watts):
                return watts == 0.0  # spectra: noqa[SPC004] -- sentinel
        """, select=["SPC004"])
        assert found == []


# -- SPC005: dead attributes ---------------------------------------------------------


class TestDeadAttributes:
    def test_detects_write_only_private_attribute(self):
        found = lint("""
            class Node:
                def __init__(self, sim):
                    self._sim = sim
                    self.name = "node"

                def describe(self):
                    return self.name
        """, select=["SPC005"])
        assert codes(found) == ["SPC005"]
        assert "_sim" in found[0].message

    def test_read_attribute_passes(self):
        found = lint("""
            class Node:
                def __init__(self, sim):
                    self._sim = sim

                def now(self):
                    return self._sim.now
        """, select=["SPC005"])
        assert found == []

    def test_public_attribute_exempt(self):
        found = lint("""
            class Node:
                def __init__(self):
                    self.capacity = 10.0
        """, select=["SPC005"])
        assert found == []

    def test_string_reference_counts_as_read(self):
        found = lint("""
            class Node:
                def __init__(self, sim):
                    self._sim = sim

                def peek(self):
                    return getattr(self, "_sim")
        """, select=["SPC005"])
        assert found == []

    def test_suppressed(self):
        found = lint("""
            class Node:
                def __init__(self, sim):
                    self._sim = sim  # spectra: noqa[SPC005] -- subclass API
        """, select=["SPC005"])
        assert found == []


# -- SPC006: swallowed excepts -------------------------------------------------------


class TestSwallowedExcept:
    def test_detects_bare_except(self):
        found = lint("""
            def run(job):
                try:
                    job()
                except:
                    pass
        """, select=["SPC006"])
        assert codes(found) == ["SPC006"]
        assert "bare except" in found[0].message

    def test_detects_silent_broad_except_on_hot_path(self):
        found = lint("""
            def dispatch(handler):
                try:
                    return handler()
                except Exception:
                    return None
        """, select=["SPC006"])
        assert codes(found) == ["SPC006"]

    def test_broad_except_outside_hot_path_passes(self):
        found = lint("""
            def run_experiment(fn):
                try:
                    return fn()
                except Exception:
                    return None
        """, path="src/repro/experiments/fixture.py", select=["SPC006"])
        assert found == []

    def test_narrow_except_passes(self):
        found = lint("""
            def lookup(table, key):
                try:
                    return table[key]
                except KeyError:
                    return None
        """, select=["SPC006"])
        assert found == []

    def test_reraise_passes(self):
        found = lint("""
            def call(fn, span):
                try:
                    return fn()
                except Exception as exc:
                    span.end(error=type(exc).__name__)
                    raise
        """, select=["SPC006"])
        assert found == []

    def test_routing_the_exception_passes(self):
        found = lint("""
            def step(self):
                try:
                    self.advance()
                except Exception as exc:
                    self.fail(exc)
        """, select=["SPC006"])
        assert found == []

    def test_suppressed(self):
        found = lint("""
            def run(job):
                try:
                    job()
                except Exception:  # spectra: noqa[SPC006] -- fire and forget
                    pass
        """, select=["SPC006"])
        assert found == []


# -- cross-rule: suppression forms ---------------------------------------------------


class TestSuppressionForms:
    def test_blanket_noqa_suppresses_every_rule(self):
        found = lint("""
            import time

            def stamp():
                return time.time()  # spectra: noqa
        """)
        assert found == []

    def test_listed_codes_suppress_only_those(self):
        code = """
            import time

            def stamp(duration):
                return time.time(), duration == 0.5  # spectra: noqa[SPC004]
        """
        found = lint(code)
        assert codes(found) == ["SPC001"]

    def test_ruff_noqa_comment_is_not_a_spectra_suppression(self):
        found = lint("""
            import time

            def stamp():
                return time.time()  # noqa: BLE001
        """, select=["SPC001"])
        assert codes(found) == ["SPC001"]

    def test_noqa_inside_string_is_ignored(self):
        found = lint('''
            import time

            def stamp():
                text = "# spectra: noqa"
                return time.time(), text
        ''', select=["SPC001"])
        assert codes(found) == ["SPC001"]


#: The whole rule pack.  Adding or removing a rule is an edit here.
EXPECTED_RULES = ("SPC001", "SPC002", "SPC004", "SPC005", "SPC006",
                  "SPC101", "SPC102", "SPC103", "SPC105")


def test_registry_holds_exactly_the_expected_rules():
    from spclint import RULE_REGISTRY
    assert sorted(RULE_REGISTRY) == list(EXPECTED_RULES)


@pytest.mark.parametrize("rule_code", EXPECTED_RULES)
def test_every_rule_is_registered(rule_code):
    from spclint import RULE_REGISTRY
    assert rule_code in RULE_REGISTRY
    rule = RULE_REGISTRY[rule_code]
    assert rule.code == rule_code
    assert rule.description
