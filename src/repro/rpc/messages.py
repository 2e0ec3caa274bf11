"""RPC message types.

Spectra's RPC package moves *operation requests* between clients and
servers.  Payload contents are irrelevant to placement decisions — only
their sizes matter (they determine transfer time and radio energy) — so
messages carry byte counts plus small structured metadata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

from ..network import NoRouteError, TransferAbortedError

#: Fixed protocol overhead per message (headers, marshalling), bytes.
HEADER_BYTES = 96

_opid_counter = itertools.count(1)


def next_opid() -> int:
    """Allocate a process-unique request identifier."""
    return next(_opid_counter)


@dataclass(slots=True)
class Request:
    """A service invocation travelling client → server.

    ``optype`` selects the handler inside a service (the paper's services
    "multiplex on optype").  ``params`` are small application parameters
    (marshalled into the header); ``indata_bytes`` is the bulk payload.
    """

    service: str
    optype: str
    opid: int
    indata_bytes: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.indata_bytes


@dataclass(slots=True)
class Response:
    """A service result travelling server → client.

    ``usage`` carries the server's resource-consumption report — the
    piggy-backed accounting that remote proxy monitors consume
    (paper §3.3.5).
    """

    opid: int
    rc: int = 0
    outdata_bytes: int = 0
    result: Any = None
    usage: Dict[str, float] = field(default_factory=dict)
    #: files the service read on the server: path -> size (feeds the
    #: client's file-access predictor alongside local observations)
    file_accesses: Dict[str, int] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.outdata_bytes

    @property
    def ok(self) -> bool:
        return self.rc == 0


class RpcError(RuntimeError):
    """Transport- or dispatch-level RPC failure."""


class ServiceUnavailableError(RpcError):
    """The target host is unreachable or does not run the service."""


class RpcTimeoutError(RpcError):
    """A call exceeded its :class:`~repro.rpc.transport.RetryPolicy`
    per-attempt timeout.

    The in-flight exchange is interrupted and its byte jobs withdrawn;
    the caller may retry (the server may merely be slow or partitioned,
    both transient in a dynamic environment).
    """


#: Failure classes a retry can plausibly fix: the server may restart, a
#: partition may heal, and a fresh attempt re-walks the whole path.
#: Anything else (a malformed response, an application error) is fatal —
#: resending the same request reproduces the same failure.
_RETRYABLE_TYPES = (
    ServiceUnavailableError,
    RpcTimeoutError,
    TransferAbortedError,
    NoRouteError,
)


def is_retryable(exc: BaseException) -> bool:
    """Classify an RPC failure as retryable (transient) or fatal.

    Retryable: the server was down or unreachable
    (:class:`ServiceUnavailableError`, :class:`~repro.network.NoRouteError`),
    the link died under the transfer
    (:class:`~repro.network.TransferAbortedError`), or the attempt timed
    out (:class:`RpcTimeoutError`).  Fatal: everything else, notably a
    malformed dispatcher response (plain :class:`RpcError`) — retrying a
    deterministic failure only burns energy.
    """
    return isinstance(exc, _RETRYABLE_TYPES)
