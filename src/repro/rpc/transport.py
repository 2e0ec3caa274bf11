"""RPC transport: request/response exchange over the simulated network.

All Spectra client↔server communication flows through one
:class:`RpcTransport`, for the same reason it flows through Spectra's RPC
package in the paper: "Observing network usage is trivial since all
client-server communication passes through Spectra" (§3.3.2).  The
transport counts per-exchange bytes and RPCs, and the underlying
:class:`~repro.network.Network` logs transfers for the passive bandwidth
estimator.

Remote execution in a dynamic environment must expect the exchange to
*fail* — servers crash mid-dispatch, links partition mid-transfer.  A
:class:`RetryPolicy` makes the transport resilient to transient
failures: each attempt runs under a per-call timeout, retryable errors
(see :func:`~repro.rpc.messages.is_retryable`) back off exponentially
with seeded jitter and try again, and fatal errors propagate
immediately.  Everything is driven by simulated time and an explicitly
seeded RNG, so two runs with the same schedule retry identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Optional

from ..network import Network
from ..sim import AnyOf, Simulator
from ..sim.events import Timeout
from ..telemetry import Telemetry, ensure_telemetry
from .messages import (
    Request,
    Response,
    RpcError,
    RpcTimeoutError,
    ServiceUnavailableError,
    is_retryable,
)

#: A dispatcher takes a Request and returns a *process generator* whose
#: return value is a Response.
Dispatcher = Callable[[Request], Generator]


@dataclass
class ExchangeStats:
    """Byte/RPC accounting for a sequence of exchanges (one operation)."""

    rpcs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def merge(self, other: "ExchangeStats") -> None:
        self.rpcs += other.rpcs
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received


@dataclass
class RetryPolicy:
    """Per-call timeout plus capped exponential backoff with seeded jitter.

    ``max_attempts`` counts the first try: 3 means one call and up to two
    retries.  Backoff for retry *n* (1-based) is
    ``min(base * multiplier**(n-1), max)`` scaled by a jitter factor
    drawn uniformly from ``[1-jitter, 1+jitter]`` out of this policy's
    own seeded generator — deterministic run to run, decorrelated call
    to call.  ``timeout_s=None`` disables the per-attempt timeout.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = 30.0
    backoff_base_s: float = 0.1
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 5.0
    jitter: float = 0.1
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive: {self.timeout_s}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1: {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")
        self._rng = random.Random(self.seed)

    def backoff_s(self, retry_number: int) -> float:
        """Delay before retry *retry_number* (1-based), jittered."""
        delay = min(
            self.backoff_base_s * self.backoff_multiplier ** (retry_number - 1),
            self.backoff_max_s,
        )
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay


class RpcTransport:
    """Routes requests to per-host dispatchers across the network."""

    def __init__(self, sim: Simulator, network: Network,
                 telemetry: Optional[Telemetry] = None):
        self._sim = sim
        self.network = network
        self.telemetry = ensure_telemetry(telemetry)
        self._dispatchers: Dict[str, Dispatcher] = {}
        #: default policy for calls that pass none; None = single
        #: attempt, no timeout (the paper's fire-and-hope transport)
        self.retry_policy: Optional[RetryPolicy] = None

    # -- wiring -----------------------------------------------------------------

    def bind(self, host_name: str, dispatcher: Dispatcher) -> None:
        """Install *dispatcher* as the RPC sink on *host_name*."""
        self._dispatchers[host_name] = dispatcher

    def reachable(self, src_host: str, dst_host: str) -> bool:
        return (dst_host in self._dispatchers
                and self.network.connected(src_host, dst_host))

    # -- the exchange ---------------------------------------------------------------

    def call(self, src_host: str, dst_host: str, request: Request,
             stats: Optional[ExchangeStats] = None,
             policy: Optional[RetryPolicy] = None) -> Generator:
        """Process: perform one RPC; returns the :class:`Response`.

        Timeline (sequential, like the paper's non-overlapping execution
        model): request transfer → server-side dispatch → response
        transfer.  Local calls skip the network but still dispatch.

        With a :class:`RetryPolicy` (argument or the transport default),
        each attempt runs under the policy's timeout and retryable
        failures are retried with backoff; without one, a single attempt
        either succeeds or raises.
        """
        effective = policy if policy is not None else self.retry_policy
        started = self._sim.now
        span = self.telemetry.tracer.start_span(
            "rpc.call", src=src_host, dst=dst_host,
            service=request.service, optype=request.optype,
            opid=request.opid,
        )
        attempts = 0
        while True:
            attempts += 1
            try:
                response = yield from self._attempt(
                    src_host, dst_host, request, effective
                )
                break
            except Exception as exc:
                retries_left = (effective is not None
                                and attempts < effective.max_attempts)
                if not retries_left or not is_retryable(exc):
                    span.end(error=type(exc).__name__, attempts=attempts)
                    self.telemetry.metrics.counter("rpc.failures").inc()
                    raise
                self.telemetry.metrics.counter("rpc.retries").inc()
                try:
                    yield Timeout(effective.backoff_s(attempts))
                except BaseException as backoff_exc:
                    # The caller's process can be killed while parked on
                    # the backoff timer (mid-failover); the span must
                    # not outlive the call.
                    span.end(error=type(backoff_exc).__name__,
                             attempts=attempts)
                    raise

        # Loopback calls never cross the network: they contribute neither
        # bytes nor round trips to the operation's network demand model.
        if stats is not None and src_host != dst_host:
            stats.rpcs += 1
            stats.bytes_sent += request.wire_bytes
            stats.bytes_received += response.wire_bytes
        span.end(
            bytes_sent=request.wire_bytes,
            bytes_received=response.wire_bytes,
            local=src_host == dst_host,
            attempts=attempts,
        )
        metrics = self.telemetry.metrics
        metrics.counter("rpc.calls").inc()
        metrics.counter("rpc.bytes_sent").inc(request.wire_bytes)
        metrics.counter("rpc.bytes_received").inc(response.wire_bytes)
        metrics.histogram("rpc.latency_s").observe(self._sim.now - started)
        return response

    def _attempt(self, src_host: str, dst_host: str, request: Request,
                 policy: Optional[RetryPolicy]) -> Generator:
        """Process: one exchange attempt, under the policy's timeout."""
        if policy is None or policy.timeout_s is None:
            return (yield from self._exchange(src_host, dst_host, request))
        exchange = self._sim.spawn(
            self._exchange(src_host, dst_host, request),
            name=f"rpc:{request.service}.{request.optype}#{request.opid}",
        )
        deadline = self._sim.timeout_event(policy.timeout_s)
        index, value = yield AnyOf([exchange, deadline])
        if index == 0:
            return value
        # Deadline first: kill the in-flight exchange (its transfer jobs
        # are withdrawn by the link layer) and report a typed timeout.
        exchange.interrupt("rpc timeout")
        raise RpcTimeoutError(
            f"rpc {request.service}.{request.optype} to {dst_host!r} "
            f"timed out after {policy.timeout_s}s"
        )

    def _exchange(self, src_host: str, dst_host: str,
                  request: Request) -> Generator:
        """Process: the uninstrumented request→dispatch→response path."""
        dispatcher = self._dispatchers.get(dst_host)
        if dispatcher is None:
            raise ServiceUnavailableError(
                f"no RPC dispatcher bound on host {dst_host!r}"
            )
        if src_host != dst_host and not self.network.connected(src_host, dst_host):
            raise ServiceUnavailableError(
                f"host {dst_host!r} unreachable from {src_host!r}"
            )

        kind = "rpc" if request.wire_bytes <= 1024 else "bulk"
        yield from self.network.transfer(
            src_host, dst_host, request.wire_bytes, kind=kind,
        )

        response = yield from dispatcher(request)
        if not isinstance(response, Response):
            raise RpcError(
                f"dispatcher on {dst_host!r} returned {type(response).__name__}, "
                "expected Response"
            )

        kind = "rpc" if response.wire_bytes <= 1024 else "bulk"
        yield from self.network.transfer(
            dst_host, src_host, response.wire_bytes, kind=kind,
        )
        return response
