"""Events and processes for the discrete-event simulation kernel.

The kernel (:mod:`repro.sim.kernel`) executes *processes* — Python
generators that ``yield`` event objects to suspend themselves.  The event
types defined here are the vocabulary processes use to talk to the kernel:

``Timeout``
    Resume after a fixed amount of simulated time.

``Event``
    A one-shot condition that other code triggers.  Any number of
    processes may wait on the same event; all are resumed when it fires.

``AllOf`` / ``AnyOf``
    Composite events built from other events.

``Process``
    A running generator; itself an event that triggers when the
    generator returns, so a parent can ``yield`` a child to wait for it.
    It lives beside :class:`Event` because resuming a process reads the
    event's outcome on every step of every process.

Events carry an optional *value*, delivered to waiting processes as the
result of their ``yield`` expression.  A failed event (see
:meth:`Event.fail`) raises its exception inside each waiting process
instead, so simulated failures propagate exactly like real ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(SimulationError):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"process interrupted (cause={cause!r})")
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, resuming every waiting process.  Triggering twice is an
    error — events are one-shot by design, which keeps causality in the
    simulation easy to reason about.
    """

    __slots__ = ("_callbacks", "_triggered", "_ok", "_value")

    def __init__(self) -> None:
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._ok = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of a triggered event."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see *exception* raised."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when the event triggers.

        If the event has already triggered the callback runs immediately;
        late subscribers observe the same outcome as punctual ones.
        """
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)


class Timeout:
    """Suspend the yielding process for ``delay`` units of simulated time.

    ``value`` (default ``None``) becomes the result of the ``yield``.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class AllOf(Event):
    """Composite event that succeeds when every child event succeeds.

    The value is the list of child values, in the order the children were
    given.  If any child fails, the composite fails with that child's
    exception (first failure wins).
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, events: List[Event]):
        super().__init__()
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, child: Event) -> None:
        if self._triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Composite event that succeeds when the first child triggers.

    The value is a ``(index, value)`` pair identifying which child fired.
    A failing first child fails the composite.
    """

    __slots__ = ("_children",)

    def __init__(self, events: List[Event]):
        super().__init__()
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(child: Event) -> None:
            if self._triggered:
                return
            if child.ok:
                self.succeed((index, child.value))
            else:
                self.fail(child.value)

        return on_child


class Process(Event):
    """A running simulated activity: a generator the kernel steps.

    Each time the generator yields a :class:`Timeout`, an :class:`Event`
    or another :class:`Process`, the process suspends until that object
    resolves, then resumes with its value.  Created via
    :meth:`repro.sim.kernel.Simulator.spawn`; not constructed directly by
    user code.  As an :class:`Event`, it triggers when the underlying
    generator finishes, with the generator's return value.
    """

    __slots__ = ("_sim", "_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__()
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self._sim = sim
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        Interrupting a finished process is a no-op (mirrors POSIX signal
        semantics: the race between completion and interruption is benign).
        """
        if self.triggered:
            return
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None:
            # Detach: the event's eventual trigger must no longer resume us.
            detached = waited
            detached._callbacks = [
                cb for cb in detached._callbacks if getattr(cb, "__self__", None) is not self
            ]
        self._sim._schedule_now(lambda: self._step(False, Interrupt(cause)))

    # -- kernel-facing machinery -------------------------------------------

    def _start(self) -> None:
        self._step(True, None)

    def _step(self, ok: bool, value: Any) -> None:
        """Send *value* into the generator, or throw it unless *ok*, and
        wait for what it yields next."""
        try:
            if ok:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - propagate as failure
            # An interrupt the process did not handle fails it too.
            self.fail(exc)
            return
        # Events first: they are nearly every yield.  Subscribing and
        # resuming touch the event's slots directly (the hottest path in
        # the simulator); add_callback's late-subscriber rule holds.
        if isinstance(target, Event):
            event = target
        elif isinstance(target, Timeout):
            event = Event()
            sim = self._sim
            sim._schedule_at(sim.now + target.delay,
                             lambda: event.succeed(target.value))
        else:
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
            )
            return
        self._waiting_on = event
        if event._triggered:
            self._resume(event)
        else:
            event._callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up after interrupt
        self._waiting_on = None
        self._step(event._ok, event._value)

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
