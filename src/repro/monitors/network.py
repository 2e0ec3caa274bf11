"""The network monitor (paper §3.3.2).

Supply is predicted **passively**: the monitor never injects probe
traffic.  It periodically examines the RPC package's transmission log —
"the short, small RPCs give an approximation of round trip time, while
the long, large bulk transfers approximate throughput" — and fits, per
(client, server) endpoint pair, the two-parameter model::

    elapsed(n) = latency + n / bandwidth

by recency-weighted least squares over recent transfer records.  In the
deterministic simulator this recovers the true link parameters from as
few as two differently-sized exchanges, and tracks changes (the halved-
bandwidth scenario) as soon as post-change traffic appears — in practice
the periodic server-status polls supply that traffic.

Demand observation is trivial "since all client-server communication
passes through Spectra": the per-operation
:class:`~repro.rpc.ExchangeStats` already counts bytes and RPCs.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..network import Network, NoRouteError, TransferRecord
from .base import OperationRecording, ResourceMonitor
from .snapshot import NetworkEstimate, ResourceSnapshot

#: Memo key of the machine-wide fallback window; remotes are host names,
#: so it can never alias a pair's key.
HOST_WIDE = None

#: One memo entry: the fitted window's first record, last record, length,
#: and the fit over it.
_FitMemo = Tuple[TransferRecord, TransferRecord, int, Optional[NetworkEstimate]]


class NetworkMonitor(ResourceMonitor):
    """Passive bandwidth/latency estimation for one client host."""

    name = "network"

    BYTES_RESOURCE = "net:bytes"
    RPCS_RESOURCE = "net:rpcs"

    def __init__(self, host_name: str, network: Network,
                 window_s: float = 120.0, decay: float = 0.9):
        self._host_name = host_name
        self._network = network
        self.window_s = window_s
        self.decay = decay
        # The last fit per remote (and under HOST_WIDE), reused while the
        # window it covered is unchanged.
        self._fits: Dict[Hashable, _FitMemo] = {}

    # -- supply ---------------------------------------------------------------------

    def estimate_to(self, remote: str, now: float) -> NetworkEstimate:
        """Current (bandwidth, latency) estimate for traffic to *remote*.

        Resolution order mirrors the paper: fit the pair's own recent
        transfers; failing that, fit the *machine-wide* transfer history
        ("the instantaneous bandwidth available to the entire machine
        ... assuming that the first hop is the bottleneck link" — on a
        one-interface mobile host, traffic to any peer reveals the
        bottleneck); failing that, the interface's nominal rate.
        """
        since = max(0.0, now - self.window_s)
        log = self._network.log
        estimate = self._memo_fit(
            remote, log.recent(since, endpoint=(self._host_name, remote)))
        if estimate is None:
            estimate = self._memo_fit(
                HOST_WIDE, log.recent(since, host=self._host_name))
        if estimate is None:
            estimate = self._nominal(remote)
        return estimate

    def _memo_fit(self, key: Hashable,
                  records: List[TransferRecord]) -> Optional[NetworkEstimate]:
        """:meth:`_fit` over *records*, reusing the last fit under *key*
        when it covered the same window.

        Every window under one key is a suffix of one :class:`TransferLog`
        index, which only grows at its end and trims at its start, and
        holds each record once.  So two windows with the same first
        record, last record (both by identity) and length hold the same
        records in the same order.  Index positions would not do: a trim
        shifts them.  A deep copy of the monitor together with its log
        (``clone_world``) shares the log's records, which are frozen and
        deep-copy to themselves, so the memo's records are the copy's own
        and the key stays valid there too.
        """
        n = len(records)
        if n < 2:
            return None
        first, last = records[0], records[-1]
        memo = self._fits.get(key)
        if memo is not None and memo[0] is first and memo[1] is last \
                and memo[2] == n:
            return memo[3]
        estimate = self._fit(records)
        self._fits[key] = (first, last, n, estimate)
        return estimate

    def _fit(self, records: List[TransferRecord]) -> Optional[NetworkEstimate]:
        """Fit elapsed = L + n/B over *records*, recency weighted.

        The newest record has weight 1 and each older one ``decay`` times
        the next.  Recency is log position: :class:`TransferLog` rejects
        out-of-order appends, so *records* (oldest first) are in finish
        order, and records that finished at the same instant are weighted
        in the order they were logged.  (An ``argsort`` over finish times
        used to decide that order; numpy's default sort is not stable
        beyond 16 elements, so tied records got arbitrary weights.)

        Weighted least squares in closed form, centred on the weighted
        means in a second pass.  ``None`` when fewer than two records,
        when every size is equal (latency and bandwidth cannot be told
        apart) or when the fitted time per byte is not positive.
        """
        n = len(records)
        if n < 2:
            return None
        sizes = [float(r.nbytes) for r in records]
        if max(sizes) <= min(sizes):
            return None
        elapsed = [r.elapsed for r in records]
        decay = self.decay
        weights = [decay ** age for age in range(n - 1, -1, -1)]
        total = sum(weights)
        mean_size = sum(w * x for w, x in zip(weights, sizes)) / total
        mean_elapsed = sum(w * y for w, y in zip(weights, elapsed)) / total
        sxx = sxy = 0.0
        for w, x, y in zip(weights, sizes, elapsed):
            dx = x - mean_size
            sxx += w * dx * dx
            sxy += w * dx * (y - mean_elapsed)
        if sxx <= 0.0:
            # Only when the records that differ in size have weights
            # that underflowed to zero: no usable spread.
            return None
        per_byte = sxy / sxx
        if per_byte <= 0:
            return None
        latency = max(mean_elapsed - per_byte * mean_size, 0.0)
        return NetworkEstimate(
            bandwidth_bps=1.0 / per_byte, latency_s=latency, observed=True
        )

    def _nominal(self, remote: str) -> NetworkEstimate:
        """Fallback before any traffic has been observed.

        Uses the link's contention-adjusted nominal rate — morally the
        interface's advertised speed, which a real system also knows.
        """
        try:
            link = self._network.link_between(self._host_name, remote)
        except NoRouteError:
            # Unreachable is a *prediction* (zero bandwidth, infinite
            # latency); any other failure is a wiring bug and must
            # propagate rather than masquerade as a dead link.
            return NetworkEstimate(bandwidth_bps=0.0, latency_s=float("inf"),
                                   observed=False)
        nbytes = 1 << 20
        elapsed = link.estimate_transfer_time(nbytes)
        latency = link.latency_s
        bandwidth = nbytes / max(elapsed - latency, 1e-9)
        return NetworkEstimate(bandwidth_bps=bandwidth, latency_s=latency,
                               observed=False)

    def predict_avail(self, snapshot: ResourceSnapshot,
                      server_name: Optional[str] = None) -> None:
        if server_name is None:
            return
        server = snapshot.servers.get(server_name)
        if server is None:
            return
        if server_name == self._host_name:
            # Loopback: effectively infinite bandwidth, zero latency.
            server.network = NetworkEstimate(float("inf"), 0.0, observed=True)
            return
        if not self._network.connected(self._host_name, server_name):
            server.reachable = False
            server.network = NetworkEstimate(0.0, float("inf"), observed=False)
            return
        server.network = self.estimate_to(server_name, snapshot.taken_at)

    def estimate_fileserver(self, fileserver_host: str,
                            now: float) -> NetworkEstimate:
        """Connectivity estimate to the Coda file server (consistency costs)."""
        if fileserver_host == self._host_name:
            return NetworkEstimate(float("inf"), 0.0, observed=True)
        if not self._network.connected(self._host_name, fileserver_host):
            return NetworkEstimate(0.0, float("inf"), observed=False)
        return self.estimate_to(fileserver_host, now)

    # -- demand ----------------------------------------------------------------------

    def start_op(self, recording: OperationRecording) -> None:
        # ExchangeStats starts at zero inside the recording; nothing to mark.
        pass

    def stop_op(self, recording: OperationRecording) -> None:
        stats = recording.stats
        recording.usage[self.BYTES_RESOURCE] = float(
            stats.bytes_sent + stats.bytes_received
        )
        recording.usage[self.RPCS_RESOURCE] = float(stats.rpcs)
