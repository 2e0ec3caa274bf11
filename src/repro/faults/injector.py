"""The fault injector: applies scheduled faults to a live simulation.

The injector sits *outside* the system under test: it manipulates the
same knobs a hostile environment would — server availability, link
existence, link capacity and latency — through the network's public
surface, and keeps just enough state to undo each fault.  Faults apply
in sim time via the kernel's scheduler, so an installed schedule
interleaves deterministically with the workload.

Semantics:

``crash_server`` / ``restart_server``
    The Spectra daemon stops answering (``available = False``) *and*
    the host drops off the network: every adjacent link is severed,
    aborting in-flight transfers with
    :class:`~repro.network.TransferAbortedError`.  Restart restores the
    daemon and re-wires the exact link objects that were severed.

``partition`` / ``heal``
    One link disappears (in-flight transfers abort) and later returns.

``degrade_bandwidth`` / ``restore_bandwidth``
    Capacity drops to ``value × nominal`` (0.0 = jammed; in-flight
    transfers stall rather than fail).  On a shared medium this affects
    the whole medium — interference is a broadcast phenomenon.

``spike_latency`` / ``restore_latency``
    One-way latency grows by ``value`` seconds.

Repeated injections are idempotent (crashing a crashed server is a
no-op) so overlapping schedule entries compose without surprises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..network import Network
from ..sim import Simulator
from ..telemetry import Telemetry, ensure_telemetry
from ..telemetry.names import FAULTS_INJECTED, SPAN_FAULT_INJECT
from .schedule import FaultEvent, FaultSchedule, Target


@dataclass(frozen=True)
class AppliedFault:
    """Journal entry: one fault as it actually landed."""

    at_s: float
    action: str
    target: Target
    value: Optional[float] = None
    #: transfers aborted by this fault (crash/partition), else 0
    aborted_transfers: int = 0
    #: False when the fault was a no-op (already applied / unknown target)
    effective: bool = True

    def describe(self) -> str:
        target = ("<->".join(self.target) if isinstance(self.target, tuple)
                  else self.target)
        note = "" if self.effective else " (no-op)"
        aborted = (f" aborted={self.aborted_transfers}"
                   if self.aborted_transfers else "")
        return f"t={self.at_s:.3f}s {self.action} {target}{aborted}{note}"


class FaultInjector:
    """Applies :class:`FaultEvent` s to a network and its servers."""

    def __init__(self, sim: Simulator, network: Network,
                 servers: Optional[Mapping[str, object]] = None,
                 telemetry: Optional[Telemetry] = None):
        self._sim = sim
        self._network = network
        #: host name -> SpectraServer (anything with an ``available`` flag)
        self._servers = dict(servers or {})
        self.telemetry = ensure_telemetry(telemetry)
        #: links severed by a crash, keyed by crashed host
        self._severed: Dict[str, Dict[Tuple[str, str], object]] = {}
        #: links removed by a partition, keyed by canonical pair
        self._partitioned: Dict[Tuple[str, str], object] = {}
        #: nominal bandwidth/latency remembered at first degradation
        self._nominal_bw: Dict[Tuple[str, str], float] = {}
        self._nominal_latency: Dict[Tuple[str, str], float] = {}
        #: everything applied, in application order (the chaos report)
        self.applied: List[AppliedFault] = []

    # -- scheduling -----------------------------------------------------------------

    def install(self, schedule: FaultSchedule) -> None:
        """Arm every event of *schedule* on the simulation clock."""
        for event in schedule:
            self.schedule(event)

    def schedule(self, event: FaultEvent) -> None:
        """Arm one event (absolute sim time)."""
        self._sim.call_at(event.at_s, lambda e=event: self.apply(e))

    # -- application ----------------------------------------------------------------

    def apply(self, event: FaultEvent) -> AppliedFault:
        """Apply *event* now, journal it, and return the journal entry."""
        handler = getattr(self, f"_apply_{event.action}")
        if event.action in ("degrade_bandwidth", "spike_latency"):
            effective, aborted = handler(event.target, event.value)
        else:
            effective, aborted = handler(event.target)
        entry = AppliedFault(
            at_s=self._sim.now, action=event.action, target=event.target,
            value=event.value, aborted_transfers=aborted,
            effective=effective,
        )
        self.applied.append(entry)
        if self.telemetry.tracer.enabled:
            self.telemetry.tracer.start_span(
                SPAN_FAULT_INJECT, action=event.action,
                target=str(event.target), value=event.value,
                aborted_transfers=aborted, effective=effective,
            ).end()
        self.telemetry.metrics.counter(FAULTS_INJECTED).inc()
        return entry

    # -- server faults ------------------------------------------------------------

    def _apply_crash_server(self, host: str) -> Tuple[bool, int]:
        if host in self._severed:
            return False, 0
        server = self._servers.get(host)
        if server is not None:
            server.available = False
        severed = self._network.links_of(host)
        aborted = 0
        for (a, b), link in severed.items():
            self._network.disconnect(a, b, abort_in_flight=False)
            aborted += link.abort_transfers(f"server {host!r} crashed")
        self._severed[host] = severed
        return True, aborted

    def _apply_restart_server(self, host: str) -> Tuple[bool, int]:
        severed = self._severed.pop(host, None)
        if severed is None:
            return False, 0
        server = self._servers.get(host)
        if server is not None:
            server.available = True
        for (a, b), link in severed.items():
            if not self._network.connected(a, b):
                self._network.connect(a, b, link)
        return True, 0

    # -- link faults --------------------------------------------------------------

    def _apply_partition(self, pair: Tuple[str, str]) -> Tuple[bool, int]:
        key = self._key(pair)
        if key in self._partitioned:
            return False, 0
        before = self._active_transfers(pair)
        link = self._network.disconnect(*pair)
        if link is None:
            return False, 0
        self._partitioned[key] = link
        return True, before

    def _apply_heal(self, pair: Tuple[str, str]) -> Tuple[bool, int]:
        link = self._partitioned.pop(self._key(pair), None)
        if link is None:
            return False, 0
        if not self._network.connected(*pair):
            self._network.connect(pair[0], pair[1], link)
        return True, 0

    def _apply_degrade_bandwidth(self, pair: Tuple[str, str],
                                 fraction: float) -> Tuple[bool, int]:
        link = self._link(pair)
        if link is None:
            return False, 0
        key = self._key(pair)
        nominal = self._nominal_bw.setdefault(key, link.bandwidth_bps)
        link.set_bandwidth(nominal * fraction)
        return True, 0

    def _apply_restore_bandwidth(self, pair: Tuple[str, str]
                                 ) -> Tuple[bool, int]:
        nominal = self._nominal_bw.pop(self._key(pair), None)
        link = self._link(pair)
        if nominal is None or link is None:
            return False, 0
        link.set_bandwidth(nominal)
        return True, 0

    def _apply_spike_latency(self, pair: Tuple[str, str],
                             added_s: float) -> Tuple[bool, int]:
        link = self._link(pair)
        if link is None:
            return False, 0
        key = self._key(pair)
        nominal = self._nominal_latency.setdefault(key, link.latency_s)
        link.latency_s = nominal + added_s
        return True, 0

    def _apply_restore_latency(self, pair: Tuple[str, str]
                               ) -> Tuple[bool, int]:
        nominal = self._nominal_latency.pop(self._key(pair), None)
        link = self._link(pair)
        if nominal is None or link is None:
            return False, 0
        link.latency_s = nominal
        return True, 0

    # -- helpers -----------------------------------------------------------------

    def _key(self, pair: Tuple[str, str]) -> Tuple[str, str]:
        a, b = pair
        return (a, b) if a <= b else (b, a)

    def _link(self, pair: Tuple[str, str]):
        if not self._network.connected(*pair):
            return None
        return self._network.link_between(*pair)

    def _active_transfers(self, pair: Tuple[str, str]) -> int:
        link = self._link(pair)
        return link.active_transfers if link else 0

    def journal(self) -> List[str]:
        """Human-readable application log, in order."""
        return [entry.describe() for entry in self.applied]
