"""The Coda client: caching, weak connectivity, and reintegration.

One :class:`CodaClient` runs on every machine that executes application
code (including Spectra servers — "server B does not have any input files
cached" is a statement about server B's Coda client).  The client:

* serves reads from its whole-file cache, fetching misses from the file
  server over the network;
* buffers writes in a client modify log (CML) when *weakly connected*,
  or reintegrates them immediately when strongly connected;
* exposes the observation hooks Spectra's file-cache-state monitor needs:
  the list of cached files, a fetch-rate estimate, and a per-operation
  access log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from ..network import Network
from ..sim import Simulator, Timeout
from ..telemetry import Telemetry, ensure_telemetry
from .cache import FileCache
from .objects import volume_of
from .reintegration import REINTEGRATION_EFFICIENCY, ChangeLog, Conflict
from .server import FileServer


class DisconnectedError(RuntimeError):
    """Raised when an uncached file is accessed with no path to the server."""


@dataclass(frozen=True)
class FileAccess:
    """One observed file access (the monitor's raw material)."""

    time: float
    path: str
    size: int
    hit: bool

    def __deepcopy__(self, memo: dict) -> "FileAccess":
        # Frozen, and every field is immutable: a copy may share it.
        return self


#: Size of a version-validation RPC (metadata only), bytes.
_VALIDATE_RPC_BYTES = 128


class CodaClient:
    """Coda client instance attached to one host.

    Parameters
    ----------
    sim, host_name, server, network:
        Kernel, owning host's name, the authoritative
        :class:`~repro.coda.server.FileServer`, and the topology that
        connects them.
    cache_capacity_bytes:
        Whole-file LRU cache size.
    weakly_connected:
        When True, stores buffer in the CML (visible to other machines
        only after reintegration).  When False, stores reintegrate
        immediately (strong consistency).
    """

    def __init__(
        self,
        sim: Simulator,
        host_name: str,
        server: FileServer,
        network: Network,
        cache_capacity_bytes: int = 50 * 1024 * 1024,
        weakly_connected: bool = False,
        name: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self._sim = sim
        self.host_name = host_name
        self.server = server
        self.network = network
        self.telemetry = ensure_telemetry(telemetry)
        self.name = name or f"coda@{host_name}"
        self.cache = FileCache(cache_capacity_bytes)
        self.cml = ChangeLog()
        self.weakly_connected = weakly_connected
        self.access_log: List[FileAccess] = []
        self._trickling = False
        #: update/update conflicts detected at reintegration
        self.conflicts: List[Conflict] = []
        server.register_client(self)

    # -- connectivity ------------------------------------------------------------

    @property
    def connected(self) -> bool:
        """True when the file server is reachable right now."""
        return self.network.connected(self.host_name, self.server.host_name)

    # -- read path -----------------------------------------------------------------

    def access(self, path: str) -> Generator:
        """Process: read *path*; returns the :class:`FileAccess` record.

        Cache hit with a valid callback: free (local disk).  Stale copy:
        revalidate with a metadata RPC, refetch if the version moved.
        Miss: fetch the whole file from the server.
        """
        entry = self.cache.get(path)
        if entry is not None and (entry.has_callback or entry.dirty):
            record = FileAccess(self._sim.now, path, entry.size, hit=True)
            self.access_log.append(record)
            return record

        if entry is not None and not entry.has_callback:
            # Stale: revalidate.  Version unchanged -> regain callback.
            yield from self._require_connection(path)
            yield from self.network.transfer(
                self.host_name, self.server.host_name, _VALIDATE_RPC_BYTES,
                kind="rpc",
            )
            authoritative = self.server.lookup(path)
            if authoritative.version == entry.version:
                entry.has_callback = True
                self.server.grant_callback(path, self.name)
                record = FileAccess(self._sim.now, path, entry.size, hit=True)
                self.access_log.append(record)
                return record
            self.cache.evict(path)

        # Miss: whole-file fetch.
        yield from self._require_connection(path)
        authoritative = self.server.lookup(path)
        yield from self.network.transfer(
            self.server.host_name, self.host_name, authoritative.size,
            kind="bulk",
        )
        self.cache.insert(path, authoritative.size, authoritative.version)
        self.server.grant_callback(path, self.name)
        record = FileAccess(self._sim.now, path, authoritative.size, hit=False)
        self.access_log.append(record)
        return record

    def _require_connection(self, path: str) -> Generator:
        if not self.connected:
            raise DisconnectedError(
                f"{self.name}: {path!r} not cached and file server unreachable"
            )
        return
        yield  # pragma: no cover - generator marker

    # -- write path ------------------------------------------------------------------

    def modify(self, path: str, new_size: int) -> Generator:
        """Process: store whole-file contents for *path* (size *new_size*).

        Whole-file overwrite semantics (Coda's store): the old contents
        are not needed, so an uncached target costs only a metadata
        lookup, not a data fetch.  Weakly connected: the store lands in
        the CML.  Strongly connected: the volume reintegrates
        immediately.
        """
        entry = self.cache.get(path)
        if entry is None:
            authoritative = self.server.lookup(path)
            entry = self.cache.insert(path, authoritative.size,
                                      authoritative.version)
        base_version = entry.version
        self.cache.mark_dirty(path, new_size)
        self.cml.log_store(path, new_size, self._sim.now,
                           base_version=base_version)
        if not self.weakly_connected:
            yield from self.reintegrate_volume(volume_of(path))
        return None

    # -- reintegration -----------------------------------------------------------------

    def pending_reintegration_bytes(self, volume: str) -> int:
        return self.cml.pending_bytes(volume)

    def dirty_volumes(self) -> List[str]:
        return self.cml.dirty_volumes()

    def has_pending_store(self, path: str) -> bool:
        return self.cml.has_pending(path)

    def reintegrate_volume(self, volume: str) -> Generator:
        """Process: push all buffered stores for *volume* to the server.

        Volume granularity is load-bearing: one modified file drags its
        whole volume's CML across the network (paper §3.5).
        """
        nbytes = self.cml.pending_bytes(volume)
        if nbytes == 0:
            return 0.0
        span = self.telemetry.tracer.start_span(
            "coda.reintegrate", host=self.host_name, volume=volume,
            bytes=nbytes,
        )
        try:
            yield from self._require_connection(f"/{volume}/")
            # RPC2 chattiness: reintegration keeps the link busy for far
            # longer than the payload alone would
            # (REINTEGRATION_EFFICIENCY).
            wire_bytes = int(nbytes / REINTEGRATION_EFFICIENCY)
            elapsed = yield from self.network.transfer(
                self.host_name, self.server.host_name, wire_bytes,
                kind="bulk",
            )
        except BaseException as exc:
            # A disconnection or aborted transfer fails the push at a
            # yield; the span must still close with the failure on it.
            span.end(error=type(exc).__name__)
            raise
        conflicts_before = len(self.conflicts)
        for record in self.cml.clear_volume(volume):
            authoritative = self.server.lookup(record.path)
            if authoritative.version != record.base_version:
                # Someone else updated the file while this store sat in
                # the CML.  Record the conflict; apply ours on top
                # (last-writer-wins, visible for repair).
                self.conflicts.append(Conflict(
                    path=record.path,
                    base_version=record.base_version,
                    server_version=authoritative.version,
                    detected_at=self._sim.now,
                ))
            committed = self.server.commit_store(
                record.path, record.size, self.name
            )
            self.cache.mark_clean(record.path, committed.version)
            self.server.grant_callback(record.path, self.name)
        span.end(
            wire_bytes=wire_bytes, elapsed_s=elapsed,
            conflicts=len(self.conflicts) - conflicts_before,
        )
        metrics = self.telemetry.metrics
        metrics.counter("coda.reintegrations").inc()
        metrics.counter("coda.reintegrated_bytes").inc(nbytes)
        metrics.histogram("coda.reintegrate_s").observe(elapsed)
        return elapsed

    def reintegrate_all(self) -> Generator:
        """Process: reintegrate every dirty volume."""
        total = 0.0
        for volume in self.dirty_volumes():
            total += yield from self.reintegrate_volume(volume)
        return total

    def start_trickle(self, interval_s: float = 60.0) -> None:
        """Background trickle reintegration, as in real weakly-connected
        Coda: while connected, one dirty volume drains per period, so
        buffered updates eventually propagate even if Spectra never
        forces them.  Stop with :meth:`stop_trickle`.
        """
        if self._trickling:
            return
        self._trickling = True

        def loop():
            while self._trickling:
                yield Timeout(interval_s)
                if not self._trickling:
                    return
                if self.connected:
                    dirty = self.dirty_volumes()
                    if dirty:
                        yield from self.reintegrate_volume(dirty[0])

        self._sim.spawn(loop(), name=f"trickle@{self.host_name}")

    def stop_trickle(self) -> None:
        self._trickling = False

    # -- monitor hooks -----------------------------------------------------------------

    def cached_files(self) -> List[Tuple[str, int]]:
        """(path, size) for every *usable* cached file.

        Stale entries (broken callback) are excluded: the next access
        must revalidate and likely refetch, so for prediction purposes
        they are misses.
        """
        return [
            (entry.path, entry.size)
            for entry in self.cache.entries()
            if entry.has_callback or entry.dirty
        ]

    def is_cached(self, path: str) -> bool:
        entry = self.cache.get(path, touch=False)
        return entry is not None and (entry.has_callback or entry.dirty)

    def fetch_rate_estimate(self) -> float:
        """Predicted bytes/second for servicing cache misses right now."""
        if not self.connected:
            return 0.0
        probe = 1 << 20
        elapsed = self.network.estimate_transfer_time(
            self.server.host_name, self.host_name, probe
        )
        return probe / elapsed if elapsed > 0 else 0.0

    def access_log_mark(self) -> int:
        """Bookmark for slicing per-operation accesses (monitor start_op)."""
        return len(self.access_log)

    def accesses_since(self, mark: int) -> List[FileAccess]:
        return self.access_log[mark:]

    # -- hoarding ---------------------------------------------------------------------

    def hoard(self, path: str, priority: int = 100) -> None:
        """Pin *path* at a hoard priority (0 unpins).

        Hoarded files lose the eviction lottery last, and
        :meth:`hoard_walk` prefetches any that are missing — Coda's
        preparation-for-disconnection workflow.
        """
        self.cache.set_hoard_priority(path, priority)

    def hoard_walk(self) -> Generator:
        """Process: fetch every hoarded-but-missing file (hoard walk).

        Files whose cached copy is stale are revalidated/refetched via
        the normal access path.  Unreachable servers abort the walk
        (the remaining files stay missing until the next walk).
        """
        fetched = 0
        for path in self.cache.hoarded_paths():
            entry = self.cache.get(path, touch=False)
            if entry is not None and (entry.has_callback or entry.dirty):
                continue
            yield from self.access(path)
            fetched += 1
        return fetched

    # -- cache administration -------------------------------------------------------------

    def flush(self, path: str) -> bool:
        """Evict a file (the experiments' 'flushed from the cache' setup)."""
        return self.cache.evict(path)

    def warm(self, path: str) -> None:
        """Populate the cache instantly (experiment setup, not simulation)."""
        authoritative = self.server.lookup(path)
        self.cache.insert(path, authoritative.size, authoritative.version)
        self.server.grant_callback(path, self.name)

    def warm_all(self, paths) -> None:
        for path in paths:
            self.warm(path)

    # -- server -> client callback channel ------------------------------------------------

    def _callback_broken(self, path: str) -> None:
        self.cache.invalidate(path)
