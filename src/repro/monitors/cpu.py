"""The CPU monitor (paper §3.3.1).

Supply: "predicts availability using a smoothed estimate of recent load
... calculates the percentage of cycles available for operation execution
by assuming that background load will remain unchanged and that the
operation will get a fair share of the CPU.  It multiplies this value by
the processor speed to predict the cycles per second the operation will
receive."

Demand: "observes CPU usage by associating an operation with the
identifier of the executing process ... Before and after execution, the
monitor observes CPU statistics for the executing process and its
children using Linux's /proc file system."  Our simulated CPU keeps
per-owner cycle counters that play the role of ``/proc``.
"""

from __future__ import annotations

from typing import Optional

from ..hosts import Host
from .base import OperationRecording, ResourceMonitor
from .snapshot import ResourceSnapshot


class LocalCPUMonitor(ResourceMonitor):
    """Measures the client's own processor."""

    name = "cpu"

    #: resource key this monitor reports demand under
    RESOURCE = "cpu:local"

    def __init__(self, host: Host):
        self._host = host

    def predict_avail(self, snapshot: ResourceSnapshot,
                      server_name: Optional[str] = None) -> None:
        if server_name is not None:
            return  # remote CPUs are the proxy monitors' business
        snapshot.local_cpu_rate_cps = self._host.cpu.predicted_rate_for_new_job()

    def start_op(self, recording: OperationRecording) -> None:
        recording.marks[self.name] = self._host.cpu.cycles_used_by(recording.owner)

    def stop_op(self, recording: OperationRecording) -> None:
        start = recording.marks.get(self.name)
        if start is None:
            raise RuntimeError("cpu monitor stop_op without start_op")
        used = self._host.cpu.cycles_used_by(recording.owner) - start
        self._host.cpu.release(recording.owner)
        recording.usage[self.RESOURCE] = recording.usage.get(self.RESOURCE, 0.0) + used


class ServerCPUMonitor(ResourceMonitor):
    """Runs on a Spectra *server*: measures service CPU usage there.

    Its measurements travel back to clients inside RPC usage reports; the
    client-side accumulation is handled by the remote proxy monitor.
    """

    name = "cpu"

    RESOURCE = "cpu:remote"

    def __init__(self, host: Host):
        self._host = host

    def availability(self) -> float:
        """Predicted cycles/second for a newly arriving service job."""
        return self._host.cpu.predicted_rate_for_new_job()

    def start_op(self, recording: OperationRecording) -> None:
        recording.marks[f"{self.name}@{self._host.name}"] = (
            self._host.cpu.cycles_used_by(recording.owner)
        )

    def stop_op(self, recording: OperationRecording) -> None:
        key = f"{self.name}@{self._host.name}"
        start = recording.marks.get(key)
        if start is None:
            raise RuntimeError("server cpu monitor stop_op without start_op")
        used = self._host.cpu.cycles_used_by(recording.owner) - start
        self._host.cpu.release(recording.owner)
        recording.usage[self.RESOURCE] = recording.usage.get(self.RESOURCE, 0.0) + used
