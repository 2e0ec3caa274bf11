"""The discrete-event simulation kernel.

Every component of the Spectra reproduction — CPUs, network links,
batteries, the Coda file system, the Spectra client and servers — advances
through simulated time by scheduling callbacks on one shared
:class:`Simulator`.  Determinism is a design goal: two runs with identical
inputs produce identical traces, because ties in the event queue break on a
monotonically increasing sequence number, never on object identity.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield Timeout(2.5)          # do 2.5 s of simulated work
        return "done"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert sim.now == 2.5 and proc.value == "done"

The event loop is the hottest code in the repository — a metro-scale
scenario pushes tens of millions of callbacks through it — so the kernel
keeps per-event work minimal: plain tuples in the heap, local bindings in
the drain loops, a bare int for the event count that is synced to the
telemetry counter at drain points rather than per event, and lazy-cancel
:class:`TimerHandle` objects so superseded timers cost one skipped call
instead of a heap surgery.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..telemetry import Telemetry, ensure_telemetry
from .events import Event, SimulationError, Timeout
from .process import Process

#: Events scheduled "now" still run after the current callback returns —
#: the kernel never re-enters user code.
_EPSILON_PRIORITY = 0


class TimerHandle:
    """A cancellable scheduled callback with *lazy* cancellation.

    Cancelling does not touch the event queue — the heap entry stays where
    it is and the handle simply forgets its callback, so the eventual pop
    is a no-op.  That makes cancel O(1) and keeps the queue free of
    tombstone-compaction logic; the cost is one dead pop per cancelled
    timer, which is cheap exactly because the pop does nothing.

    Handles are created by :meth:`Simulator.timer` and are the right tool
    for *superseding* timers: components that continually re-arm a "next
    completion" timer (fair-share resources, retry backoff) cancel the
    stale handle instead of letting stale callbacks run guard-token
    checks forever.
    """

    __slots__ = ("when", "_callback")

    def __init__(self, when: float, callback: Callable[[], None]):
        self.when = when
        self._callback: Optional[Callable[[], None]] = callback

    @property
    def cancelled(self) -> bool:
        return self._callback is None

    def cancel(self) -> None:
        """Forget the callback; the queued entry becomes a no-op."""
        self._callback = None

    def __call__(self) -> None:
        callback = self._callback
        if callback is not None:
            self._callback = None
            callback()

    def __repr__(self) -> str:
        state = "cancelled" if self._callback is None else "armed"
        return f"<TimerHandle t={self.when:.6f} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Time is a float in **seconds**.  The kernel offers two styles:

    * callback scheduling (:meth:`call_at`, :meth:`call_in`) for simple
      reactive components, and
    * generator processes (:meth:`spawn`) for activities with their own
      control flow (RPC exchanges, reintegration, application operations).
    """

    __slots__ = ("_now", "_queue", "_sequence", "_running", "_processed",
                 "_events_counter", "_spawns_counter", "telemetry")

    def __init__(self, start_time: float = 0.0,
                 telemetry: Optional[Telemetry] = None):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self._running = False
        self._processed = 0
        self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Key *telemetry* to this simulator's clock and start counting.

        Binds the tracer clock to ``self.now`` (first simulator wins)
        and mirrors the kernel's scheduling activity into the metrics
        registry: ``sim.events`` (callbacks executed) and
        ``sim.processes`` (processes spawned).  ``sim.events`` is synced
        at drain points (end of :meth:`run` / :meth:`run_process`), not
        per event, so its reading inside a callback may lag
        :attr:`events_processed` by the current drain's batch.
        """
        self.telemetry = ensure_telemetry(telemetry)
        self.telemetry.bind_clock(lambda: self._now)
        # Cached instruments: the null registry's are shared no-ops.
        metrics = self.telemetry.metrics
        self._events_counter = metrics.counter("sim.events")
        self._spawns_counter = metrics.counter("sim.processes")

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (diagnostic counter)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Callbacks queued and not yet run (cancelled timers included)."""
        return len(self._queue)

    @property
    def running(self) -> bool:
        """True while :meth:`run` is draining the queue."""
        return self._running

    # -- scheduling ------------------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated time *when*."""
        if when < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: {when} < {self._now}"
            )
        self._schedule_at(max(when, self._now), callback)

    def call_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* after *delay* seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._schedule_at(self._now + delay, callback)

    def timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule *callback* after *delay* seconds; returns a handle.

        The handle supports O(1) lazy :meth:`TimerHandle.cancel` — the
        queue entry stays put and fires as a no-op.  Use this instead of
        :meth:`call_in` whenever the timer may be superseded before it
        fires.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        handle = TimerHandle(self._now + delay, callback)
        self._schedule_at(handle.when, handle)
        return handle

    def _schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, callback))

    def _schedule_now(self, callback: Callable[[], None]) -> None:
        self._schedule_at(self._now, callback)

    # -- events & processes ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh one-shot :class:`Event` bound to this simulator."""
        return Event()

    def timeout_event(self, delay: float, value: Any = None) -> Event:
        """An :class:`Event` that succeeds after *delay* simulated seconds."""
        event = Event()
        self.call_in(delay, lambda: event.succeed(value))
        return event

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from *generator*; it first runs 'now'."""
        process = Process(self, generator, name=name)
        self._schedule_now(process._start)
        self._spawns_counter.inc()
        return process

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next event; returns False if queue empty."""
        if not self._queue:
            return False
        when, _seq, callback = heapq.heappop(self._queue)
        if when < self._now - 1e-12:
            raise SimulationError("event queue time went backwards")
        self._now = max(self._now, when)
        self._processed += 1
        self._events_counter.inc()
        callback()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time reaches *until*.

        Returns the simulated time at which execution stopped.  The
        *max_events* guard turns accidental infinite event loops into a
        loud error instead of a hung test suite.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        # Inlined fast path of step(): local bindings for the queue
        # and heappop, no per-event method call, no redundant
        # emptiness re-check.  Callbacks schedule into the same list
        # object, so the local alias stays valid.  The per-event
        # saving is small but this loop *is* the simulator — every
        # scenario second is millions of trips through it.  The event
        # count stays a local int and drains to the telemetry counter
        # once, in the finally block, so an exception cannot lose it.
        queue = self._queue
        pop = heapq.heappop
        count = 0
        try:
            while queue:
                when = queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                when, _seq, callback = pop(queue)
                if when > self._now:
                    self._now = when
                count += 1
                callback()
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock"
                    )
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._processed += count
            if count:
                self._events_counter.inc(count)
            self._running = False
        return self._now

    def run_process(self, generator: Generator, name: str = "",
                    max_events: int = 50_000_000) -> Any:
        """Spawn *generator*, run the simulation until it finishes.

        Returns the process's return value, or re-raises its failure.
        This is the main entry point experiments use: each application
        operation is a process; ``run_process`` executes it to completion
        while every other simulated component keeps pace.  The
        *max_events* guard mirrors :meth:`run`: an infinite event loop
        inside an operation raises :class:`SimulationError` instead of
        hanging the caller.
        """
        process = self.spawn(generator, name=name)
        # Same inlined event loop as run(): run_process drives every
        # application operation, so it shares the hot path, including
        # the drain-point counter sync and the livelock guard.
        queue = self._queue
        pop = heapq.heappop
        count = 0
        try:
            while not process.triggered and queue:
                when, _seq, callback = pop(queue)
                if when > self._now:
                    self._now = when
                count += 1
                callback()
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock"
                    )
        finally:
            self._processed += count
            if count:
                self._events_counter.inc(count)
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} never finished (deadlock?)"
            )
        if not process.ok:
            raise process.value
        return process.value

    def advance(self, delay: float) -> float:
        """Run all events within the next *delay* seconds, then stop.

        Equivalent to ``run(until=now + delay)``; used to let background
        activity (polling, battery drain) progress between operations.
        """
        return self.run(until=self._now + delay)

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f} pending={len(self._queue)}>"
