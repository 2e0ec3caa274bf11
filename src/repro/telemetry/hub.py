"""The Telemetry hub: one tracer + one metrics registry per run.

Every instrumented component takes an optional ``telemetry`` argument;
``None`` means the shared :data:`NULL_TELEMETRY` — tracing and metrics
both off, at zero cost.  A plain :class:`Telemetry` is metrics-only: a
live :class:`~repro.telemetry.metrics.MetricsRegistry` and the null
tracer, which is what ``run_scenario`` and the CLI use by default.

Tracing is opt-in and streams.  :func:`jsonl_trace` yields a
``Telemetry`` whose tracer writes one JSONL line per finished span, and
appends the metrics trailer on exit::

    with jsonl_trace("run.jsonl") as telemetry:
        world = compile_scenario(spec, telemetry=telemetry)  # binds the clock
        ...

The file is JSONL: one span record per line in end order, then a single
trailing ``{"type": "metrics", ...}`` line with the registry snapshot.
The ``repro trace`` CLI replays that file into decision forensics.  Any
other consumer can pass its own sink: ``SpanTracer(records.append)``.
"""

from __future__ import annotations

import contextlib
import json
from typing import Any, Dict, Iterator, Optional

from .metrics import MetricsRegistry, NullMetricsRegistry
from .tracer import NULL_TRACER, SpanTracer


class Telemetry:
    """Bundle of the run's tracer and metrics registry.

    The default is metrics-only: spans go to :data:`NULL_TRACER` unless
    a :class:`SpanTracer` is passed in.
    """

    def __init__(self, tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def bind_clock(self, clock, force: bool = False) -> bool:
        """Key the tracer to a clock (normally ``lambda: sim.now``)."""
        return self.tracer.bind_clock(clock, force=force)


NULL_TELEMETRY = Telemetry(tracer=NULL_TRACER,  # type: ignore[arg-type]
                           metrics=NullMetricsRegistry())
"""The disabled singleton: shared safely by every uninstrumented run
because it accumulates no state at all."""


def ensure_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Normalize the optional constructor argument components take."""
    return telemetry if telemetry is not None else NULL_TELEMETRY


@contextlib.contextmanager
def jsonl_trace(path) -> Iterator[Telemetry]:
    """A traced :class:`Telemetry` that streams to the JSONL file *path*.

    Each finished span is written as one line (``sort_keys=True``) the
    moment it ends; on exit the metrics trailer follows and the file is
    closed.  Nothing is kept in memory between lines.
    """
    with open(path, "w") as fh:
        def write(record: Dict[str, Any]) -> None:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

        telemetry = Telemetry(tracer=SpanTracer(write))
        yield telemetry
        write({"type": "metrics", "metrics": telemetry.metrics.to_dict()})
