"""Passive network observation log.

Spectra's network monitor predicts bandwidth and latency "based upon
passive observation of communication: the RPC package logs the sizes and
elapsed times of short exchanges and bulk transfers" (paper §3.3.2).
:class:`TransferLog` is that log: every simulated transfer appends a
record, and the monitor periodically mines recent records for round-trip
and throughput estimates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..copying import deepcopy_state


@dataclass(frozen=True)
class TransferRecord:
    """One logged network transfer.

    ``kind`` distinguishes ``"rpc"`` (short request/response exchange,
    good for RTT estimation) from ``"bulk"`` (large one-way payload, good
    for throughput estimation), mirroring the paper's short-vs-bulk split.
    """

    src: str
    dst: str
    nbytes: int
    started_at: float
    finished_at: float
    kind: str = "bulk"

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Observed bytes/second (0 for instantaneous records)."""
        if self.elapsed <= 0:
            return 0.0
        return self.nbytes / self.elapsed

    def __deepcopy__(self, memo: dict) -> "TransferRecord":
        # Frozen, and every field is immutable: a copy may share it.
        return self


#: One index: records in append order and, in parallel, their finish times.
_Index = Tuple[List[TransferRecord], List[float]]


class TransferLog:
    """Transfer records, indexed by unordered host pair and by host.

    Records must arrive in non-decreasing ``finished_at`` order, as
    :meth:`Network.transfer <repro.network.topology.Network.transfer>`
    appends them at ``sim.now``.  Every index is therefore sorted by
    time, and :meth:`recent` finds its window with one bisection instead
    of scanning the whole network's history.

    ``max_records`` bounds each index on its own — when one outgrows it,
    its oldest half is dropped — so a busy pair never evicts a quiet
    pair's evidence.  :attr:`transfers` and :attr:`bytes` are running
    totals over every record ever appended, trimmed or not.
    """

    def __init__(self, max_records: int = 10_000):
        if max_records < 1:
            raise ValueError(f"max_records must be positive: {max_records}")
        self.max_records = max_records
        self.transfers = 0
        self.bytes = 0
        self._held = 0
        self._latest = float("-inf")
        self._by_pair: Dict[Tuple[str, str], _Index] = {}
        self._by_host: Dict[str, _Index] = {}

    def append(self, record: TransferRecord) -> None:
        if record.finished_at < self._latest:
            raise ValueError(
                f"transfer finished at {record.finished_at} was appended "
                f"after one finished at {self._latest}"
            )
        self._latest = record.finished_at
        self.transfers += 1
        self.bytes += record.nbytes
        src, dst = record.src, record.dst
        self._held += 1 - self._push(self._by_pair, _pair(src, dst), record)
        self._push(self._by_host, src, record)
        if dst != src:
            self._push(self._by_host, dst, record)

    def _push(self, indexes: Dict[Hashable, _Index], key: Hashable,
              record: TransferRecord) -> int:
        """Append *record* under *key*; returns how many records it trimmed."""
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = ([], [])
        records, times = index
        records.append(record)
        times.append(record.finished_at)
        if len(records) <= self.max_records:
            return 0
        # Drop the oldest half in one slice rather than one-at-a-time.
        drop = max(1, self.max_records // 2)
        del records[:drop]
        del times[:drop]
        return drop

    def __len__(self) -> int:
        """Records held; each sits in exactly one host-pair index."""
        return self._held

    def __deepcopy__(self, memo: dict) -> "TransferLog":
        # Records are frozen and keys are strings: a copy needs its own
        # index lists, not its own records.
        return deepcopy_state(self, memo, _by_pair=_copy_indexes,
                              _by_host=_copy_indexes)

    def recent(self, since: float, endpoint: Optional[Tuple[str, str]] = None,
               host: Optional[str] = None) -> List[TransferRecord]:
        """Records finishing at or after *since*, oldest first.

        Give exactly one of *endpoint*, a host pair whose traffic in
        either direction counts (both reveal the same link), or *host*,
        for every transfer it sent or received.
        """
        if (endpoint is None) == (host is None):
            raise TypeError("recent() needs exactly one of endpoint or host")
        if endpoint is not None:
            index = self._by_pair.get(_pair(*endpoint))
        else:
            index = self._by_host.get(host)
        if index is None:
            return []
        records, times = index
        return records[bisect_left(times, since):]


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _copy_indexes(indexes: Dict[Hashable, _Index]) -> Dict[Hashable, _Index]:
    return {key: (list(records), list(times))
            for key, (records, times) in indexes.items()}
