"""The Spectra server: hosts services and reports resource usage.

"Spectra consists of a client ... and a server, which executes on
machines that may perform work on behalf of clients.  It is common for a
single machine to run both client and server" (paper §3).  Application
code components executed here are *services*, each conceptually its own
process (we tag their CPU usage with a per-request owner, the simulated
equivalent of per-process accounting).

The server also answers the client's periodic status polls with a
:class:`~repro.monitors.ServerStatus` snapshot: predicted CPU
availability, the Coda cache contents, and the miss-service rate — the
data remote proxy monitors feed on.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..coda import CodaClient, DisconnectedError
from ..hosts import Host
from ..monitors import ServerStatus
from ..rpc import (
    OpContext,
    Request,
    Response,
    RpcTransport,
    Service,
    ServiceUnavailableError,
)
from ..sim import Simulator
from .overhead import OverheadModel

#: Reserved service name for Spectra's own control RPCs.
CONTROL_SERVICE = "_spectra"


class SpectraServer:
    """One machine's Spectra server daemon."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        transport: RpcTransport,
        coda: Optional[CodaClient] = None,
        overhead: Optional[OverheadModel] = None,
    ):
        self.sim = sim
        self.host = host
        self.transport = transport
        self.coda = coda
        self.overhead = overhead if overhead is not None else OverheadModel()
        self._services: Dict[str, Service] = {}
        self._active_operations = 0
        # Requests in progress per CPU owner.  Concurrent requests of one
        # operation share its owner (Pangloss's parallel engines landing
        # on one server), and each reads the owner's total; the owner is
        # released when the last of them ends.
        self._requests_by_owner: Dict[str, int] = {}
        #: The paper's "network partition in which the Spectra server is
        #: unavailable [but] the file servers remain accessible": flip
        #: this False and the daemon stops answering while the host's
        #: network (and its Coda traffic) keeps flowing.
        self.available = True
        transport.bind(host.name, self._dispatch)

    # -- service registry ------------------------------------------------------------

    def register_service(self, service: Service) -> None:
        if service.name == CONTROL_SERVICE:
            raise ValueError(f"service name {CONTROL_SERVICE!r} is reserved")
        self._services[service.name] = service

    def has_service(self, name: str) -> bool:
        return name in self._services

    # -- status ------------------------------------------------------------------------

    def status(self) -> ServerStatus:
        """Snapshot this machine's resources for a polling client."""
        cached = dict(self.coda.cached_files()) if self.coda is not None else {}
        fetch_rate = (self.coda.fetch_rate_estimate()
                      if self.coda is not None else 0.0)
        return ServerStatus(
            host_name=self.host.name,
            cpu_rate_cps=self.host.cpu.predicted_rate_for_new_job(),
            cached_files=cached,
            fetch_rate_bps=fetch_rate,
            active_operations=self._active_operations,
            taken_at=self.sim.now,
        )

    # -- dispatch ----------------------------------------------------------------------

    def _dispatch(self, request: Request) -> Generator:
        """Process: handle one inbound RPC; returns a Response.

        Checks availability when called, then hands back the handler's
        own generator."""
        if not self.available:
            raise ServiceUnavailableError(
                f"Spectra server on {self.host.name!r} is down"
            )
        if request.service == CONTROL_SERVICE:
            return self._dispatch_control(request)
        return self._dispatch_service(request)

    def _dispatch_control(self, request: Request) -> Generator:
        if request.optype == "_status":
            status = self.status()
            return Response(
                opid=request.opid,
                outdata_bytes=status.wire_bytes,
                result=status,
            )
        raise ServiceUnavailableError(
            f"unknown control optype {request.optype!r}"
        )
        yield  # pragma: no cover - generator marker

    def _dispatch_service(self, request: Request) -> Generator:
        service = self._services.get(request.service)
        if service is None:
            raise ServiceUnavailableError(
                f"host {self.host.name!r} does not run service "
                f"{request.service!r}"
            )
        owner = f"{request.service}#{request.opid}@{self.host.name}"
        self._active_operations += 1
        self._requests_by_owner[owner] = (
            self._requests_by_owner.get(owner, 0) + 1
        )
        coda_mark: Optional[int] = None
        served = False
        try:
            # Server-side dispatch overhead (context switch, unmarshal).
            yield self.host.cpu.submit(
                self.overhead.rpc_server_cycles, owner=owner
            ).done
            cycles_before = self.host.cpu.cycles_used_by(owner)
            if self.coda is not None:
                coda_mark = self.coda.access_log_mark()

            ctx = OpContext(self.host, self.coda, request, owner)
            try:
                result = yield from service.perform(ctx)
            except DisconnectedError as exc:
                # The server's own Coda path died under the operation
                # (e.g. the host was crashed or partitioned away from
                # the file servers mid-service).  From the caller's
                # side this is the server becoming unavailable — a
                # transient, retryable condition that should trigger
                # the client's retry/failover machinery, not an
                # application error that would reproduce anywhere.
                raise ServiceUnavailableError(
                    f"service {request.service!r} on {self.host.name!r} "
                    f"lost its file-server path mid-operation: {exc}"
                ) from exc
            served = True

            cycles_used = self.host.cpu.cycles_used_by(owner) - cycles_before
            file_accesses: Dict[str, int] = {}
            if coda_mark is not None:
                for access in self.coda.accesses_since(coda_mark):
                    file_accesses[access.path] = access.size
            return Response(
                opid=request.opid,
                rc=result.rc,
                outdata_bytes=result.outdata_bytes,
                result=result.result,
                usage={
                    "cpu:remote": cycles_used,
                },
                file_accesses=file_accesses,
            )
        finally:
            # The request's last reads are done, on success or failure.
            self._active_operations -= 1
            others = self._requests_by_owner.pop(owner) - 1
            if others:
                self._requests_by_owner[owner] = others
            else:
                if not served:
                    # An interrupt (the caller's RPC timeout) can end the
                    # dispatch mid-service: its CPU job would run on for
                    # nobody.  Only the owner's last open request may
                    # cancel, since a retry of the same op here shares
                    # the owner.
                    self.host.cpu.cancel_jobs_of(owner)
                self.host.cpu.release(owner)
            if coda_mark is not None:
                self.coda.release_access_mark(coda_mark)
