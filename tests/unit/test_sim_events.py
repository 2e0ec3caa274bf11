"""Unit tests for the event primitives (repro.sim.events)."""

import pytest

from repro.sim import AllOf, AnyOf, Event, SimulationError, Timeout


class TestEvent:
    def test_starts_untriggered(self):
        event = Event()
        assert not event.triggered

    def test_succeed_delivers_value(self):
        event = Event()
        event.succeed(42)
        assert event.triggered and event.ok
        assert event.value == 42

    def test_fail_stores_exception(self):
        event = Event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered and not event.ok
        assert event.value is error

    def test_double_trigger_rejected(self):
        event = Event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_fail_requires_exception_instance(self):
        with pytest.raises(TypeError):
            Event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        with pytest.raises(SimulationError):
            Event().value

    def test_callback_after_trigger_runs_immediately(self):
        event = Event()
        event.succeed("x")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_run_in_subscription_order(self):
        event = Event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed()
        assert order == [1, 2]


class TestTimeout:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_carries_value(self):
        timeout = Timeout(1.5, value="done")
        assert timeout.delay == 1.5
        assert timeout.value == "done"


class TestAllOf:
    def test_empty_succeeds_immediately(self):
        combo = AllOf([])
        assert combo.triggered and combo.value == []

    def test_collects_values_in_child_order(self):
        a, b = Event(), Event()
        combo = AllOf([a, b])
        b.succeed("B")
        assert not combo.triggered
        a.succeed("A")
        assert combo.value == ["A", "B"]

    def test_first_failure_fails_combo(self):
        a, b = Event(), Event()
        combo = AllOf([a, b])
        error = ValueError("bad")
        a.fail(error)
        assert combo.triggered and not combo.ok
        assert combo.value is error

    def test_already_triggered_children(self):
        a = Event()
        a.succeed(1)
        combo = AllOf([a])
        assert combo.triggered and combo.value == [1]


class TestAnyOf:
    def test_requires_children(self):
        with pytest.raises(ValueError):
            AnyOf([])

    def test_first_success_wins_with_index(self):
        a, b = Event(), Event()
        combo = AnyOf([a, b])
        b.succeed("B")
        assert combo.value == (1, "B")
        a.succeed("late")  # must not disturb the combo
        assert combo.value == (1, "B")

    def test_first_failure_fails_combo(self):
        a, b = Event(), Event()
        combo = AnyOf([a, b])
        error = RuntimeError("x")
        a.fail(error)
        assert not combo.ok and combo.value is error
