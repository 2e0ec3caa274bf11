"""The resource-monitor framework.

"Spectra's measurement functionality is implemented as a set of
*resource monitors*, code components that measure a single resource or a
set of related resources.  The monitors are contained within a modular
framework shared by Spectra clients and servers" (paper §3.3).

Each monitor implements a common interface:

``predict_avail(snapshot, server_name)``
    Contribute availability predictions to the snapshot under assembly.

``start_op(recording)`` / ``stop_op(recording)``
    Bracket one operation's execution, measuring its local resource
    consumption into the recording.

Resource consumption a remote Spectra server reports on its RPC response
is folded into the recording by the client itself
(``SpectraClient._merge_usage``), not by a monitor hook.

The :class:`OperationRecording` is the shared blackboard one operation's
measurements accumulate on; the Spectra client turns a finished recording
into a :class:`~repro.predictors.logs.UsageSample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..rpc import ExchangeStats
from ..telemetry import Telemetry, ensure_telemetry
from ..telemetry.names import (
    MONITORS_PREDICTIONS,
    MONITORS_SNAPSHOTS,
    SPAN_PREDICT_ALL,
)
from .snapshot import ResourceSnapshot


@dataclass
class OperationRecording:
    """Measurement context for one in-flight operation."""

    owner: str                      # CPU accounting tag
    started_at: float = 0.0
    finished_at: Optional[float] = None
    #: RPC traffic accounting, filled by do_local_op / do_remote_op
    stats: ExchangeStats = field(default_factory=ExchangeStats)
    #: True when another operation overlapped (taints energy samples)
    concurrent: bool = False
    #: monitor scratch space, keyed by monitor name
    marks: Dict[str, Any] = field(default_factory=dict)
    #: measured usage, resource name -> value
    usage: Dict[str, float] = field(default_factory=dict)
    #: files touched during the op: path -> size
    file_accesses: Dict[str, int] = field(default_factory=dict)

    @property
    def elapsed(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class ResourceMonitor:
    """Base class; concrete monitors override the hooks they serve."""

    name: str = "monitor"
    #: per-server prediction ordering: lower runs earlier.  Proxy
    #: monitors create each server's snapshot entry and must run before
    #: monitors (like the network monitor) that decorate it.
    predict_priority: int = 0

    def predict_avail(self, snapshot: ResourceSnapshot,
                      server_name: Optional[str] = None) -> None:
        """Contribute predictions to *snapshot* (optionally per server)."""

    def start_op(self, recording: OperationRecording) -> None:
        """Begin observing one operation."""

    def stop_op(self, recording: OperationRecording) -> None:
        """Finish observing; write measured usage into the recording."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class MonitorSet:
    """The ordered collection of monitors on one Spectra client.

    The modular framework of the paper: monitors can be added or swapped
    per platform (e.g. SmartBattery vs ACPI energy measurement) without
    touching the client.
    """

    def __init__(self, monitors: Optional[List[ResourceMonitor]] = None,
                 telemetry: Optional[Telemetry] = None):
        self._monitors: List[ResourceMonitor] = list(monitors or [])
        self.telemetry = ensure_telemetry(telemetry)

    def add(self, monitor: ResourceMonitor) -> None:
        self._monitors.append(monitor)

    def remove(self, name: str) -> bool:
        before = len(self._monitors)
        self._monitors = [m for m in self._monitors if m.name != name]
        return len(self._monitors) != before

    def get(self, name: str) -> ResourceMonitor:
        for monitor in self._monitors:
            if monitor.name == name:
                return monitor
        raise KeyError(f"no monitor named {name!r}")

    def __iter__(self):
        return iter(self._monitors)

    def __len__(self) -> int:
        return len(self._monitors)

    # -- the three collective operations -------------------------------------------

    def predict_all(self, snapshot: ResourceSnapshot,
                    server_names: List[str]) -> None:
        """Assemble the snapshot: global predictions, then per server."""
        span = self.telemetry.tracer.start_span(
            SPAN_PREDICT_ALL, monitors=len(self._monitors),
            servers=len(server_names),
        )
        for monitor in self._monitors:
            monitor.predict_avail(snapshot, None)
        ordered = sorted(self._monitors, key=lambda m: m.predict_priority)
        for server_name in server_names:
            for monitor in ordered:
                monitor.predict_avail(snapshot, server_name)
        span.end()
        metrics = self.telemetry.metrics
        metrics.counter(MONITORS_SNAPSHOTS).inc()
        metrics.counter(MONITORS_PREDICTIONS).inc(
            len(self._monitors) * (1 + len(server_names))
        )

    def start_all(self, recording: OperationRecording) -> None:
        for monitor in self._monitors:
            monitor.start_op(recording)

    def stop_all(self, recording: OperationRecording) -> None:
        for monitor in self._monitors:
            monitor.stop_op(recording)
