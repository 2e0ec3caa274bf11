"""Unit tests for the SPC rule pack: every rule gets a detection, a
clean pass, and a suppression case on fixture snippets."""

import textwrap

import pytest

from spclint import analyze_source

#: Path under the default scope of every rule.
SRC = "src/repro/sim/fixture.py"


def lint(code, path=SRC, select=None):
    return analyze_source(path, textwrap.dedent(code), select=select)


def codes(violations):
    return [v.rule for v in violations]


# -- SPC001: host reads -------------------------------------------------------------


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

    ENV_AND_ENTROPY = """
        import os
        import secrets
        import uuid

        def host_inputs():
            user = os.getenv("USER")
            home = os.environ["HOME"]
            return user, home, uuid.uuid4(), secrets.token_hex(8)
    """

    def test_detects_env_and_entropy_reads(self):
        found = lint(self.ENV_AND_ENTROPY, select=["SPC001"])
        assert codes(found) == ["SPC001"] * 4
        messages = sorted(v.message.split(" — ")[0] for v in found)
        assert messages == [
            "entropy call secrets.token_hex()",
            "environment read os.environ",
            "environment read os.getenv()",
            "environment read uuid.uuid4()",
        ]

    def test_detects_from_imported_environ(self):
        found = lint("""
            from os import environ

            def home():
                return environ.get("HOME")
        """, select=["SPC001"])
        assert codes(found) == ["SPC001"]
        assert "os.environ" in found[0].message

    def test_dotted_import_binds_the_package(self):
        """``import os.path`` binds ``os``, so ``os.getenv`` is still a
        host read, as it is after ``import os``."""
        found = lint("""
            import os.path

            def user():
                return os.getenv("X")
        """, select=["SPC001"])
        assert codes(found) == ["SPC001"]
        assert "os.getenv" in found[0].message

    def test_env_and_entropy_out_of_scope_pass(self):
        found = lint(self.ENV_AND_ENTROPY, path="tools/script.py",
                     select=["SPC001"])
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
    """SPC102: a span begin is a `with` item, chained into .end(), or
    handed on; a start_all has a stop_all or hands its recording on."""

    def test_detects_span_never_ended(self):
        found = lint("""
            def work(tracer):
                span = tracer.start_span("work")
                compute()
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]
        assert "never .end()ed" in found[0].message

    def test_detects_dropped_span_result(self):
        found = lint("""
            def work(tracer):
                tracer.start_span("work")
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]
        assert "dropped" in found[0].message

    def test_detects_dropped_child(self):
        found = lint("""
            def work(span):
                span.child("phase")
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]
        assert ".child(...)" in found[0].message

    def test_detects_early_return_leak(self):
        found = lint("""
            def work(tracer, fast):
                span = tracer.start_span("work")
                if fast:
                    return None
                compute()
                span.end()
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]
        assert "leak" in found[0].message

    def test_detects_start_all_without_stop_all(self):
        found = lint("""
            def run(monitors):
                recording = Recording()
                monitors.start_all(recording)
                compute()
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]

    def test_span_closed_by_hand_is_flagged(self):
        found = lint("""
            def work(tracer):
                span = tracer.start_span("work")
                compute()
                span.end()
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]
        assert "closed by hand" in found[0].message

    def test_end_in_finally_is_flagged(self):
        found = lint("""
            def work(tracer, fast):
                span = tracer.start_span("work")
                try:
                    if fast:
                        return None
                    compute()
                finally:
                    span.end()
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]

    def test_end_before_early_exit_is_flagged(self):
        found = lint("""
            def work(tracer, bad):
                span = tracer.start_span("work")
                if bad:
                    span.end(error=True)
                    raise RuntimeError("bad")
                compute()
                span.end()
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]

    def test_with_statement_passes(self):
        found = lint("""
            def work(tracer):
                with tracer.start_span("work") as span:
                    with span.child("phase") as phase:
                        phase.end(items=3)
                    compute()
        """, select=["SPC102"])
        assert found == []

    def test_name_used_as_with_item_passes(self):
        found = lint("""
            def work(tracer):
                span = tracer.start_span("work")
                with span:
                    compute()
        """, select=["SPC102"])
        assert found == []

    def test_chained_end_passes(self):
        found = lint("""
            def mark(tracer):
                tracer.start_span("tick").end()
                tracer.start_span("tock", n=1).end(n=2)
        """, select=["SPC102"])
        assert found == []

    def test_escaping_span_passes(self):
        found = lint("""
            def begin(tracer):
                span = tracer.start_span("op")
                return span
        """, select=["SPC102"])
        assert found == []

    def test_span_passed_to_helper_passes(self):
        found = lint("""
            def begin(tracer):
                span = tracer.start_span("op")
                finish_later(span)
        """, select=["SPC102"])
        assert found == []

    @pytest.mark.parametrize("body", [
        "self.span = tracer.start_span('op')",
        "spans[key] = tracer.start_span('op')",
        "yield tracer.start_span('op')",
        "return tracer.start_span('op'), 1",
        "register(name=tracer.start_span('op'))",
        "span = tracer.start_span('op')\n    pending.append(span)",
        "span = tracer.start_span('op')\n    return {'span': span}",
    ], ids=["attribute", "subscript", "yield", "return-tuple", "keyword",
            "container-call", "return-dict"])
    def test_handed_on_span_passes(self, body):
        found = lint(f"def begin(self, tracer, spans, key):\n    {body}\n",
                     select=["SPC102"])
        assert found == []

    def test_nested_function_is_its_own_scope(self):
        # The closure's end does not pair the outer function's span.
        found = lint("""
            def work(tracer):
                span = tracer.start_span("op")

                def close():
                    span.end()
                return close
        """, select=["SPC102"])
        assert codes(found) == ["SPC102"]

    def test_escaping_recording_passes(self):
        found = lint("""
            def begin(monitors):
                recording = Recording()
                monitors.start_all(recording)
                return Handle(recording=recording)
        """, select=["SPC102"])
        assert found == []

    def test_start_all_with_stop_all_passes(self):
        found = lint("""
            def measure(monitors):
                recording = Recording()
                monitors.start_all(recording)
                compute()
                monitors.stop_all(recording)
        """, select=["SPC102"])
        assert found == []

    def test_out_of_scope_file_is_not_checked(self):
        found = lint("""
            def work(tracer):
                span = tracer.start_span("work")
        """, path="tests/unit/test_fixture.py", select=["SPC102"])
        assert found == []

    def test_suppressed(self):
        found = lint("""
            def work(tracer):
                span = tracer.start_span("work")  # spectra: noqa[SPC102]
                compute()
        """, select=["SPC102"])
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
                  "SPC102", "SPC105")


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
