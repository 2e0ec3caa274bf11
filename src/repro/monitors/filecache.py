"""The file cache state monitor (paper §3.3.4).

Supply: "the file cache state monitor asks Coda which files are in its
cache ... The monitor also obtains an estimate of the rate at which
uncached data will be fetched."

Demand: "the monitor observes Coda file accesses and returns the names
and sizes of files accessed" — consumed by the file-access-likelihood
predictor (§3.5).
"""

from __future__ import annotations

from typing import Optional

from ..coda import CodaClient
from .base import OperationRecording, ResourceMonitor
from .snapshot import CacheStateEstimate, ResourceSnapshot


class FileCacheMonitor(ResourceMonitor):
    """Observes the local Coda client's cache and file accesses."""

    name = "filecache"

    def __init__(self, coda: CodaClient):
        self._coda = coda

    # -- supply ---------------------------------------------------------------------

    def predict_avail(self, snapshot: ResourceSnapshot,
                      server_name: Optional[str] = None) -> None:
        if server_name is not None:
            return
        snapshot.local_cache = CacheStateEstimate(
            cached_files=dict(self._coda.cached_files()),
            fetch_rate_bps=self._coda.fetch_rate_estimate(),
        )
        snapshot.dirty_volumes = {
            volume: self._coda.pending_reintegration_bytes(volume)
            for volume in self._coda.dirty_volumes()
        }

    # -- demand ----------------------------------------------------------------------

    def start_op(self, recording: OperationRecording) -> None:
        recording.marks[self.name] = self._coda.access_log_mark()

    def stop_op(self, recording: OperationRecording) -> None:
        mark = recording.marks.get(self.name)
        if mark is None:
            raise RuntimeError("filecache monitor stop_op without start_op")
        for access in self._coda.accesses_since(mark):
            recording.file_accesses[access.path] = access.size
        self._coda.release_access_mark(mark)
