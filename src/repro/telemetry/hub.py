"""The Telemetry hub: one tracer + one metrics registry per run.

Every instrumented component takes an optional ``telemetry`` argument;
``None`` means the shared :data:`NULL_TELEMETRY` — tracing and metrics
both off, at zero cost.  To observe a run, build one enabled
:class:`Telemetry`, hand it to the world builder (which passes it to the
simulator and every node), and export at the end::

    telemetry = Telemetry()
    world = compile_scenario(spec, telemetry=telemetry)  # binds the clock
    ...
    telemetry.export_jsonl("run.jsonl")         # spans + metrics summary

The export is JSONL: one span record per line, then a single trailing
``{"type": "metrics", ...}`` line with the registry snapshot.  The
``repro trace`` CLI replays that file into decision forensics.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry, NullMetricsRegistry
from .tracer import NULL_TRACER, SpanTracer


class Telemetry:
    """Bundle of the run's tracer and metrics registry."""

    def __init__(self, tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def bind_clock(self, clock, force: bool = False) -> bool:
        """Key the tracer to a clock (normally ``lambda: sim.now``)."""
        return self.tracer.bind_clock(clock, force=force)

    # -- export ----------------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """All span records plus the metrics snapshot record."""
        records = self.tracer.records()
        records.append({"type": "metrics", "metrics": self.metrics.to_dict()})
        return records

    def export_jsonl(self, path) -> int:
        """Write span records then the metrics record; returns line count."""
        count = 0
        with open(path, "w") as fh:
            for record in self.records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                count += 1
        return count


class _NullTelemetry(Telemetry):
    """The disabled singleton: shared safely by every uninstrumented run
    because it accumulates no state at all."""

    def __init__(self):
        super().__init__(tracer=NULL_TRACER,  # type: ignore[arg-type]
                         metrics=NullMetricsRegistry())

    def records(self) -> List[Dict[str, Any]]:
        return []

    def export_jsonl(self, path) -> int:
        return 0


NULL_TELEMETRY = _NullTelemetry()


def ensure_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Normalize the optional constructor argument components take."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
