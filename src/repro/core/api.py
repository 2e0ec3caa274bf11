"""High-level composition: wiring a machine into a Spectra node.

Building a full Spectra machine takes five substrates in the right order
(host → Coda client → Spectra server → Spectra client).  The
:class:`SpectraNode` builder does that wiring once, correctly, and is
what the scenario compiler and most tests use.
"""

from __future__ import annotations

from typing import Optional

from ..coda import CodaClient, FileServer
from ..hosts import Host, HostProfile
from ..network import Network
from ..rpc import RpcTransport, Service
from ..sim import Simulator
from ..telemetry import Telemetry
from .client import SpectraClient
from .overhead import OverheadModel
from .server import SpectraServer


class SpectraNode:
    """One machine running a Coda client, a Spectra server, and
    (optionally) a Spectra client.

    Parameters
    ----------
    sim, network, transport, fileserver:
        Shared infrastructure objects for the whole testbed.
    name, profile:
        Host identity and hardware.
    battery_powered / battery_driver:
        Forwarded to :class:`~repro.hosts.Host`.
    with_client:
        Whether this node runs applications (mobile clients do; pure
        compute servers don't need the client half).
    cache_capacity_bytes / weakly_connected:
        Forwarded to the node's Coda client.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        transport: RpcTransport,
        fileserver: FileServer,
        name: str,
        profile: HostProfile,
        battery_powered: bool = False,
        battery_driver: str = "smart",
        with_client: bool = True,
        cache_capacity_bytes: int = 50 * 1024 * 1024,
        weakly_connected: bool = False,
        solver=None,
        overhead: Optional[OverheadModel] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.sim = sim
        self.network = network
        self.transport = transport
        self.host = Host(
            sim, name, profile, network=network,
            battery_powered=battery_powered, battery_driver=battery_driver,
        )
        self.coda = CodaClient(
            sim, name, fileserver, network,
            cache_capacity_bytes=cache_capacity_bytes,
            weakly_connected=weakly_connected,
            telemetry=telemetry,
        )
        self.server = SpectraServer(
            sim, self.host, transport, coda=self.coda, overhead=overhead,
        )
        self.client: Optional[SpectraClient] = None
        if with_client:
            self.client = SpectraClient(
                sim, self.host, transport, self.coda, self.server,
                solver=solver, overhead=overhead, telemetry=telemetry,
            )

    @property
    def name(self) -> str:
        return self.host.name

    def register_service(self, service: Service) -> None:
        """Install an application service on this machine's server."""
        self.server.register_service(service)

    def require_client(self) -> SpectraClient:
        if self.client is None:
            raise RuntimeError(f"node {self.name!r} has no Spectra client")
        return self.client

    def __repr__(self) -> str:
        role = "client+server" if self.client is not None else "server"
        return f"<SpectraNode {self.name} ({role})>"
