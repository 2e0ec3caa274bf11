"""Client-side file cache with LRU eviction.

Coda hides server access latency by caching whole files on clients
(paper §3.3.4).  The cache tracks, per file: the cached size, the version
it was fetched at, whether a callback is held, and dirtiness (locally
modified, not yet reintegrated).  Dirty entries are pinned — evicting
un-reintegrated data would lose updates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class CacheEntry:
    path: str
    size: int
    version: int
    has_callback: bool = True
    dirty: bool = False
    #: Coda hoard priority: 0 = ordinary LRU citizen; higher values are
    #: evicted only after every lower-priority clean entry is gone.
    #: Hoarding is how a pervasive client prepares for disconnection —
    #: pin the language model before leaving the office.
    hoard_priority: int = 0


class FileCache:
    """Whole-file LRU cache bounded by total bytes."""

    def __init__(self, capacity_bytes: int = 50 * 1024 * 1024):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._used = 0
        #: standing hoard priorities by path (survive eviction)
        self._hoard_priorities: dict = {}
        #: eviction counter (diagnostics)
        self.evictions = 0

    # -- queries -------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, path: str, touch: bool = True) -> Optional[CacheEntry]:
        entry = self._entries.get(path)
        if entry is not None and touch:
            self._entries.move_to_end(path)
        return entry

    def entries(self) -> List[CacheEntry]:
        """Snapshot of all entries, LRU → MRU order."""
        return list(self._entries.values())

    def cached_paths(self) -> List[str]:
        return list(self._entries.keys())

    # -- mutation ------------------------------------------------------------------

    def insert(self, path: str, size: int, version: int,
               dirty: bool = False) -> CacheEntry:
        """Add or replace an entry, evicting LRU clean entries to fit.

        A file larger than the whole cache raises — Coda refuses such
        fetches, and callers should treat them as permanent misses.
        Re-inserting a hoarded path keeps its hoard priority (a refetch
        does not unpin).
        """
        if size > self.capacity_bytes:
            raise ValueError(
                f"file {path!r} ({size} B) exceeds cache capacity "
                f"({self.capacity_bytes} B)"
            )
        old = self._entries.pop(path, None)
        priority = old.hoard_priority if old is not None else (
            self._hoard_priorities.get(path, 0)
        )
        if old is not None:
            self._used -= old.size
        self._evict_to_fit(size)
        entry = CacheEntry(path=path, size=size, version=version,
                           dirty=dirty, hoard_priority=priority)
        self._entries[path] = entry
        self._used += size
        return entry

    def set_hoard_priority(self, path: str, priority: int) -> None:
        """Pin (or unpin, with 0) a path at a hoard priority.

        The priority survives eviction and refetch: it describes the
        *path*, not the currently cached bytes — like a Coda hoard
        database entry.
        """
        if priority < 0:
            raise ValueError(f"negative hoard priority: {priority}")
        if priority == 0:
            self._hoard_priorities.pop(path, None)
        else:
            self._hoard_priorities[path] = priority
        entry = self._entries.get(path)
        if entry is not None:
            entry.hoard_priority = priority

    def hoarded_paths(self):
        """Paths with a standing hoard priority, highest first."""
        return [path for path, _p in sorted(
            self._hoard_priorities.items(), key=lambda kv: (-kv[1], kv[0])
        )]

    def evict(self, path: str) -> bool:
        """Drop an entry (callback break or explicit flush).

        Dirty entries are never silently dropped — raises instead, since
        that would lose buffered updates.
        """
        entry = self._entries.get(path)
        if entry is None:
            return False
        if entry.dirty:
            raise RuntimeError(f"refusing to evict dirty entry {path!r}")
        del self._entries[path]
        self._used -= entry.size
        return True

    def invalidate(self, path: str) -> None:
        """Mark a cached copy stale (callback broken) without evicting.

        Stale-but-present copies still occupy space; the next access
        revalidates and refetches.  Dirty entries keep their data — Coda
        resolves the conflict at reintegration (we model last-writer-wins,
        adequate for the paper's single-writer workloads).
        """
        entry = self._entries.get(path)
        if entry is not None:
            entry.has_callback = False

    def mark_dirty(self, path: str, new_size: int) -> CacheEntry:
        entry = self._entries.get(path)
        if entry is None:
            raise KeyError(f"cannot dirty uncached file {path!r}")
        self._used += new_size - entry.size
        entry.size = new_size
        entry.dirty = True
        self._entries.move_to_end(path)
        return entry

    def mark_clean(self, path: str, version: int) -> None:
        entry = self._entries.get(path)
        if entry is not None:
            entry.dirty = False
            entry.version = version
            entry.has_callback = True

    def _evict_to_fit(self, incoming: int) -> None:
        while self._used + incoming > self.capacity_bytes:
            victim = self._first_clean()
            if victim is None:
                raise RuntimeError(
                    "cache full of dirty entries; reintegrate before fetching"
                )
            del self._entries[victim.path]
            self._used -= victim.size
            self.evictions += 1

    def _first_clean(self) -> Optional[CacheEntry]:
        """The eviction victim: lowest hoard priority, then LRU."""
        candidates = [e for e in self._entries.values() if not e.dirty]
        if not candidates:
            return None
        lowest = min(e.hoard_priority for e in candidates)
        for entry in self._entries.values():  # LRU order within the tier
            if not entry.dirty and entry.hoard_priority == lowest:
                return entry
        return None
