"""Network topology: named hosts wired together by links.

The :class:`Network` is the single entry point higher layers use to move
bytes: the RPC package, Coda fetches, and Coda reintegration all call
:meth:`Network.transfer`.  Centralizing transfers buys two things the
paper relies on:

* every transfer lands in the :class:`~repro.network.stats.TransferLog`,
  giving the network monitor its passive observations "for free", and
* per-host TX/RX activity counters drive radio power draw on the energy
  meter, so network-heavy plans cost client energy — the effect that
  makes local execution sometimes win on energy despite a slower CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

from ..sim import Simulator
from .link import MediumView
from .stats import TransferLog, TransferRecord


class NoRouteError(LookupError):
    """Raised when no link connects the requested host pair."""


class NetworkInterface:
    """Per-host activity counters with power-draw callbacks.

    ``on_tx_change(active: bool)`` / ``on_rx_change(active: bool)`` fire
    on 0↔1 transitions of the respective counters; hosts wire these to
    their power meters.
    """

    def __init__(self, host_name: str):
        self.host_name = host_name
        self._tx = 0
        self._rx = 0
        self.on_tx_change: Optional[Callable[[bool], None]] = None
        self.on_rx_change: Optional[Callable[[bool], None]] = None
        #: cumulative traffic counters (diagnostics / tests)
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def transmitting(self) -> bool:
        return self._tx > 0

    @property
    def receiving(self) -> bool:
        return self._rx > 0

    def _tx_begin(self) -> None:
        self._tx += 1
        if self._tx == 1 and self.on_tx_change is not None:
            self.on_tx_change(True)

    def _tx_end(self, nbytes: int) -> None:
        self._tx -= 1
        self.bytes_sent += nbytes
        if self._tx == 0 and self.on_tx_change is not None:
            self.on_tx_change(False)

    def _rx_begin(self) -> None:
        self._rx += 1
        if self._rx == 1 and self.on_rx_change is not None:
            self.on_rx_change(True)

    def _rx_end(self, nbytes: int) -> None:
        self._rx -= 1
        self.bytes_received += nbytes
        if self._rx == 0 and self.on_rx_change is not None:
            self.on_rx_change(False)


class Network:
    """Registry of hosts and the links between them."""

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._interfaces: Dict[str, NetworkInterface] = {}
        self._links: Dict[Tuple[str, str], MediumView] = {}
        self.log = TransferLog()

    # -- wiring -----------------------------------------------------------------

    def register_host(self, host_name: str) -> NetworkInterface:
        """Add a host; returns its interface for power wiring."""
        if host_name in self._interfaces:
            return self._interfaces[host_name]
        iface = NetworkInterface(host_name)
        self._interfaces[host_name] = iface
        return iface

    def interface(self, host_name: str) -> NetworkInterface:
        try:
            return self._interfaces[host_name]
        except KeyError:
            raise NoRouteError(f"unknown host {host_name!r}") from None

    def connect(self, host_a: str, host_b: str, link: MediumView) -> None:
        """Wire two registered hosts together with *link* (bidirectional)."""
        for host in (host_a, host_b):
            if host not in self._interfaces:
                raise NoRouteError(
                    f"register host {host!r} before connecting it"
                )
        self._links[self._key(host_a, host_b)] = link

    def link_between(self, host_a: str, host_b: str) -> MediumView:
        try:
            return self._links[self._key(host_a, host_b)]
        except KeyError:
            raise NoRouteError(f"no link between {host_a!r} and {host_b!r}") from None

    def connected(self, host_a: str, host_b: str) -> bool:
        if host_a == host_b:
            return True
        return self._key(host_a, host_b) in self._links

    def disconnect(self, host_a: str, host_b: str,
                   abort_in_flight: bool = True) -> Optional[MediumView]:
        """Remove the link (the paper's simulated network partition).

        By default, transfers that are mid-flight on the severed link
        fail immediately with
        :class:`~repro.network.link.TransferAbortedError` — a partition
        kills the bytes on the wire, it does not politely wait for them.
        Returns the removed link (so a later heal can reconnect the same
        object), or None if the hosts were not connected.
        """
        link = self._links.pop(self._key(host_a, host_b), None)
        if link is None:
            return None
        if abort_in_flight:
            link.abort_transfers(f"partition between {host_a!r} and {host_b!r}")
        return link

    def links_of(self, host_name: str) -> Dict[Tuple[str, str], MediumView]:
        """Every link adjacent to *host_name*, keyed by (a, b) host pair.

        The fault injector uses this to sever (and later restore) all of
        a crashed host's connectivity at once.
        """
        return {
            pair: link for pair, link in self._links.items()
            if host_name in pair
        }

    # -- data movement -------------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Process: move *nbytes* from *src* to *dst*; returns elapsed seconds.

        Local 'transfers' (src == dst) complete instantly with no logging:
        loopback traffic is free, as on a real machine.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst:
            return 0.0
            yield  # pragma: no cover - marks this function as a generator
        link = self.link_between(src, dst)
        src_if = self.interface(src)
        dst_if = self.interface(dst)
        started = self._sim.now
        src_if._tx_begin()
        dst_if._rx_begin()
        try:
            elapsed = yield from link.transmit(nbytes)
        finally:
            src_if._tx_end(nbytes)
            dst_if._rx_end(nbytes)
        self.log.append(TransferRecord(src, dst, nbytes, started,
                                       self._sim.now))
        return elapsed

    def estimate_transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Analytic transfer-time estimate given current contention."""
        if src == dst:
            return 0.0
        return self.link_between(src, dst).estimate_transfer_time(nbytes)

    def _key(self, a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)
