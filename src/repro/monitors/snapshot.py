"""Resource snapshots: a consistent view of supply at decision time.

"Prior to executing an operation, Spectra generates a *resource snapshot*
that provides a consistent view of the local and remote resources
available for execution" (paper §3.3).  The snapshot is assembled by the
monitor set and consumed by the solver's utility evaluations; taking it
once per decision (rather than querying monitors inside the search loop)
is what makes the search see one coherent world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class NetworkEstimate:
    """Predicted connectivity between the client and one server.

    Frozen: the network monitor's fit memo hands one instance to every
    snapshot taken while the fitted window is unchanged.
    """

    bandwidth_bps: float
    latency_s: float
    #: False when the estimate is a nominal fallback rather than derived
    #: from observed traffic (diagnostics; predictions use it either way).
    observed: bool = True

    def transfer_time(self, nbytes: float, nrpcs: int = 0) -> float:
        """Predicted time to move *nbytes* with *nrpcs* round trips."""
        if self.bandwidth_bps <= 0:
            return float("inf")
        return nbytes / self.bandwidth_bps + nrpcs * 2.0 * self.latency_s

    def __deepcopy__(self, memo: dict) -> "NetworkEstimate":
        # Frozen, and every field is immutable: a copy may share it.
        return self


@dataclass
class CacheStateEstimate:
    """Predicted file-cache state of one machine."""

    cached_files: Dict[str, int]  # path -> size
    fetch_rate_bps: float         # predicted miss-service rate

    def miss_time(self, expected_fetch_bytes: float) -> float:
        """Predicted time to service the expected cache-miss bytes."""
        if expected_fetch_bytes <= 0:
            return 0.0
        if self.fetch_rate_bps <= 0:
            return float("inf")
        return expected_fetch_bytes / self.fetch_rate_bps


@dataclass
class BatteryEstimate:
    """Battery availability plus the goal-directed importance of energy."""

    remaining_joules: Optional[float]  # None when wall powered
    importance: float                  # the parameter c in [0, 1]


@dataclass
class ServerEstimate:
    """Everything predicted about one candidate server."""

    name: str
    cpu_rate_cps: float
    cache: CacheStateEstimate
    network: NetworkEstimate
    reachable: bool = True
    #: seconds since this server's status was last refreshed
    staleness_s: float = 0.0


@dataclass
class ResourceSnapshot:
    """The full supply-side picture for one placement decision."""

    taken_at: float
    local_host: str
    local_cpu_rate_cps: float
    local_cache: CacheStateEstimate
    battery: BatteryEstimate
    servers: Dict[str, ServerEstimate] = field(default_factory=dict)
    #: client → file-server connectivity (consistency cost estimation)
    fileserver_network: Optional[NetworkEstimate] = None
    #: pending reintegration bytes per dirty volume on the client
    dirty_volumes: Dict[str, int] = field(default_factory=dict)

    def server(self, name: str) -> ServerEstimate:
        try:
            return self.servers[name]
        except KeyError:
            known = ", ".join(sorted(self.servers))
            raise KeyError(f"no estimate for server {name!r} (have: {known})") from None

    def reachable_servers(self) -> List[ServerEstimate]:
        return [s for s in self.servers.values() if s.reachable]
