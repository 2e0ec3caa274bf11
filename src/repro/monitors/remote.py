"""Remote proxy monitors (paper §3.3.5).

"Resource monitors on Spectra servers measure CPU and file cache state.
They communicate this information to *remote proxy monitors* running on
Spectra clients.  Each client periodically polls servers to obtain a
snapshot of resource availability.  It then calls the ``update_preds``
function of each remote proxy monitor to update server status.

When Spectra executes a RPC, server monitors observe resource usage and
report the total resource consumption as part of the RPC response.  The
Spectra client passes this data to proxy monitors by calling the
``add_usage`` function."

Here the proxy monitors carry only the polled status.  The client folds
a server's reported usage into the operation's recording itself
(``SpectraClient._merge_usage``), so no proxy hook is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .base import ResourceMonitor
from .snapshot import (
    CacheStateEstimate,
    NetworkEstimate,
    ResourceSnapshot,
    ServerEstimate,
)


@dataclass
class ServerStatus:
    """One polled snapshot of a Spectra server's resources.

    ``wire_bytes`` approximates its marshalled size: server status
    includes the cached-file list, so it is kilobytes, not bytes — which
    conveniently gives the passive network monitor well-conditioned
    observations on every poll.
    """

    host_name: str
    cpu_rate_cps: float
    cached_files: Dict[str, int] = field(default_factory=dict)
    fetch_rate_bps: float = 0.0
    active_operations: int = 0
    taken_at: float = 0.0

    @property
    def wire_bytes(self) -> int:
        return 256 + 48 * len(self.cached_files)


class RemoteProxyMonitor(ResourceMonitor):
    """Client-side stand-in for one remote server's monitors."""

    predict_priority = -10  # create server entries before decorators run

    def __init__(self, server_name: str):
        self.server_name = server_name
        self.name = f"remote:{server_name}"
        self._status: Optional[ServerStatus] = None

    # -- status updates (from periodic polls) ------------------------------------------

    def update_preds(self, status: ServerStatus) -> None:
        if status.host_name != self.server_name:
            raise ValueError(
                f"status for {status.host_name!r} delivered to proxy for "
                f"{self.server_name!r}"
            )
        self._status = status

    def mark_unreachable(self) -> None:
        """Forget the last status: the server stops being a candidate."""
        self._status = None

    @property
    def status(self) -> Optional[ServerStatus]:
        return self._status

    # -- supply ---------------------------------------------------------------------

    def predict_avail(self, snapshot: ResourceSnapshot,
                      server_name: Optional[str] = None) -> None:
        if server_name != self.server_name:
            return
        if self._status is None:
            # Never heard from this server: mark unreachable; the network
            # monitor may still flip it reachable with nominal estimates,
            # but with no CPU/cache knowledge the solver can't use it.
            snapshot.servers[self.server_name] = ServerEstimate(
                name=self.server_name,
                cpu_rate_cps=0.0,
                cache=CacheStateEstimate(cached_files={}, fetch_rate_bps=0.0),
                network=NetworkEstimate(0.0, float("inf"), observed=False),
                reachable=False,
                staleness_s=float("inf"),
            )
            return
        snapshot.servers[self.server_name] = ServerEstimate(
            name=self.server_name,
            cpu_rate_cps=self._status.cpu_rate_cps,
            cache=CacheStateEstimate(
                cached_files=dict(self._status.cached_files),
                fetch_rate_bps=self._status.fetch_rate_bps,
            ),
            network=NetworkEstimate(0.0, float("inf"), observed=False),
            reachable=True,
            staleness_s=max(snapshot.taken_at - self._status.taken_at, 0.0),
        )
