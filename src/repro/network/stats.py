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


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """One logged network transfer.

    Short exchanges and bulk transfers are logged alike: the monitor
    fits both to one line, where the small ones pin the latency and the
    large ones the bandwidth.
    """

    src: str
    dst: str
    nbytes: int
    started_at: float
    finished_at: float

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

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

    The longest window a reader declared (:meth:`declare_window`) is the
    horizon: a record appended drops, from each index it joins, those
    that finished over a horizon before it, which no reader can ask for
    again.  A log no reader declared to keeps every record.
    :attr:`transfers` and :attr:`bytes` count every record appended.
    """

    def __init__(self):
        self.transfers = 0
        self.bytes = 0
        self._held = 0
        self._latest = float("-inf")
        self._horizon: Optional[float] = None
        self._by_pair: Dict[Tuple[str, str], _Index] = {}
        self._by_host: Dict[str, _Index] = {}

    def declare_window(self, window_s: float) -> None:
        """Promise that a reader asks :meth:`recent` only for records
        since ``now - window_s`` or later, ``now`` no earlier than the
        newest record; refused past the horizon once records may be gone.
        """
        horizon = self._horizon
        if horizon is not None and window_s > horizon and self.transfers:
            raise ValueError(f"{window_s} s window past the {horizon} s horizon")
        self._horizon = window_s if horizon is None else max(horizon, window_s)

    def append(self, record: TransferRecord) -> None:
        if record.finished_at < self._latest:
            raise ValueError(
                f"transfer finished at {record.finished_at} was appended "
                f"after one finished at {self._latest}"
            )
        self._latest = record.finished_at
        self.transfers += 1
        self.bytes += record.nbytes
        # Rounding is monotone, so no reader's ``now - window_s`` is
        # below this: what is dropped lies before every window.
        cutoff = (float("-inf") if self._horizon is None
                  else record.finished_at - self._horizon)
        src, dst = record.src, record.dst
        self._held += 1 - self._push(self._by_pair, _pair(src, dst), record,
                                     cutoff)
        self._push(self._by_host, src, record, cutoff)
        if dst != src:
            self._push(self._by_host, dst, record, cutoff)

    def _push(self, indexes: Dict[Hashable, _Index], key: Hashable,
              record: TransferRecord, cutoff: float) -> int:
        """Append *record* under *key* and drop the records that finished
        before *cutoff*; returns how many it dropped."""
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = ([], [])
        records, times = index
        records.append(record)
        times.append(record.finished_at)
        if times[0] >= cutoff:
            return 0
        drop = bisect_left(times, cutoff)
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
