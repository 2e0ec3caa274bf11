"""The span tracer: structured, nested timing records in simulated time.

Spectra's decision loop (snapshot → predict → solve → execute → learn)
is only debuggable if every pass through it leaves a record.  The tracer
captures that record as *spans*: named intervals of simulated time with
attributes, linked parent→child.  Each finished span's record goes to
a *sink* the moment the span ends — typically one JSONL line for offline
forensics (``repro trace``; see :func:`~repro.telemetry.hub.jsonl_trace`).

Three design constraints shape the implementation:

* **Simulated time, not wall time.**  Spans are stamped from a pluggable
  clock — normally ``Simulator.now`` — because the quantity under study
  is where *simulated* time goes.  Tracing never consumes simulated
  time itself: Spectra's own modeled decision overhead stays the
  business of :class:`~repro.core.overhead.OverheadModel`.

* **Zero overhead when disabled.**  The :class:`NullTracer` hands out
  one shared inert span for every request; no objects accumulate, no
  clock reads happen, and an uninstrumented run's results are
  bit-identical to a run that never imported this module.

* **Streaming, not retention.**  The tracer keeps no finished spans and
  a span keeps no list of its children; a record leaves through the
  sink when its span ends, so a long traced run holds only its open
  spans in memory.

Parenting is always *explicit* (``span.child(...)`` or the ``parent=``
argument).  An ambient thread-local stack would mis-attribute spans
here: simulation processes are generators whose execution interleaves
arbitrarily, so "the most recently opened span" is usually some other
process's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

Clock = Callable[[], float]
Sink = Callable[[Dict[str, Any]], None]


class Span:
    """One named interval of simulated time, with attributes.

    Spans are created through a tracer (:meth:`SpanTracer.start_span` or
    :meth:`child`), populated with :meth:`set`, and closed with
    :meth:`end` — or used as a context manager, which ends them on exit
    and tags the span with the exception type if one escaped.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end_time",
                 "attrs", "_tracer", "__weakref__")

    def __init__(self, tracer: "SpanTracer", name: str, span_id: int,
                 parent_id: Optional[int], start: float,
                 attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end_time: Optional[float] = None
        self.attrs = attrs

    # -- lifecycle -----------------------------------------------------------------

    @property
    def ended(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds (live spans measure up to 'now')."""
        end = self.end_time if self.ended else self._tracer.now()
        return end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; values must be JSON-serializable."""
        self.attrs.update(attrs)
        return self

    def child(self, name: str, **attrs: Any) -> "Span":
        return self._tracer.start_span(name, parent=self, **attrs)

    def end(self, **attrs: Any) -> "Span":
        """Close the span at the current clock reading (idempotent)."""
        if self.ended:
            return self
        if attrs:
            self.attrs.update(attrs)
        self.end_time = self._tracer.now()
        self._tracer._record(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not self.ended:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()

    # -- views ---------------------------------------------------------------------

    def to_record(self) -> Dict[str, Any]:
        """JSON-serializable export form of a finished span."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end_time,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.ended else "open"
        return f"<Span #{self.span_id} {self.name!r} {state}>"


class SpanTracer:
    """Stamps spans against a simulated-time clock and streams them out.

    Every span, when it ends, hands its :meth:`Span.to_record` dict to
    *sink* — so records arrive in end order, children before their
    parent.  The tracer itself retains nothing.

    The clock can be bound after construction (:meth:`bind_clock`), so a
    tracer can be created before the :class:`~repro.sim.kernel.Simulator`
    it will observe — passing one ``Telemetry`` object through a world
    builder wires everything up in one step.
    """

    enabled = True

    def __init__(self, sink: Sink, clock: Optional[Clock] = None):
        self._sink = sink
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._clock_bound = clock is not None
        self._next_id = 0

    # -- clock ---------------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    def bind_clock(self, clock: Clock, force: bool = False) -> bool:
        """Install *clock* if none was bound yet; returns True if bound.

        A second simulator attaching the same telemetry does not steal
        the clock unless it forces the issue.
        """
        if self._clock_bound and not force:
            return False
        self._clock = clock
        self._clock_bound = True
        return True

    # -- span creation ---------------------------------------------------------------

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **attrs: Any) -> Span:
        self._next_id += 1
        return Span(
            self, name, self._next_id,
            parent.span_id if parent is not None else None,
            self._clock(), attrs,
        )

    def _record(self, span: Span) -> None:
        self._sink(span.to_record())


class _NullSpan(Span):
    """The shared inert span the null tracer hands to everyone."""

    __slots__ = ()

    def __init__(self):
        super().__init__(None, "null", 0, None, 0.0, {})  # type: ignore[arg-type]

    @property
    def duration(self) -> float:
        return 0.0

    def set(self, **attrs: Any) -> "Span":
        return self

    def child(self, name: str, **attrs: Any) -> "Span":
        return self

    def end(self, **attrs: Any) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:
        return "<NullSpan>"


class NullTracer:
    """Tracing disabled: every request returns the same inert span."""

    enabled = False

    def now(self) -> float:
        return 0.0

    def bind_clock(self, clock: Clock, force: bool = False) -> bool:
        return False

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **attrs: Any) -> Span:
        return NULL_SPAN


NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()
