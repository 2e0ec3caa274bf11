"""The metrics registry: counters, gauges, and quantile histograms.

Where spans answer "what happened during *this* operation", metrics
answer "what is the system doing in aggregate": RPCs issued, bytes
moved, solver states visited, reintegration passes.  Any component can
grab an instrument by name from the shared :class:`MetricsRegistry`;
instruments are get-or-create, and every name is a constant imported
from :mod:`~repro.telemetry.names`.

Histograms use **fixed buckets**: observation cost is one bisect plus
three adds, independent of how many samples arrive — the right trade
for hot paths (the alternative, keeping raw samples, turns a
million-operation run into a memory leak).  Quantiles are recovered by
linear interpolation inside the owning bucket, clamped to the observed
min/max so small sample counts don't report bucket edges nobody hit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds, tuned for second-scale
#: operation latencies with sub-millisecond decision phases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
    100.0, 300.0,
)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease: {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket distribution with interpolated quantiles."""

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None):
        edges = tuple(buckets if buckets is not None else DEFAULT_BUCKETS)
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram {name!r} buckets must be sorted "
                             f"and non-empty: {edges}")
        self.name = name
        self.buckets = edges
        #: per-bucket counts; one extra overflow bucket past the last edge
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate the *q*-quantile (0 <= q <= 1) from bucket counts.

        Interpolates linearly within the bucket holding the target rank,
        assuming samples spread uniformly across it; the bucket's edges
        are clamped to the observed min/max, so degenerate histograms
        (one bucket, few samples) stay inside the data's actual range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of [0,1]: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if cumulative + bucket_count >= rank and bucket_count > 0:
                lower = self.buckets[i - 1] if i > 0 else -math.inf
                upper = self.buckets[i] if i < len(self.buckets) else math.inf
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self.max

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        return [self.quantile(q) for q in qs]


class MetricsRegistry:
    """Named instruments, get-or-create, one namespace per run."""

    def __init__(self):
        self._instruments: Dict[str, Any] = {}
        #: the same instruments under ``(kind, name)``
        self._by_kind: Dict[Tuple[type, str], Any] = {}

    def _get(self, name: str, cls, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, *args)
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        self._by_kind[cls, name] = instrument
        return instrument

    # Counters and histograms sit on hot paths: a hit is one lookup.

    def counter(self, name: str) -> Counter:
        try:
            return self._by_kind[Counter, name]
        except KeyError:
            return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        try:
            return self._by_kind[Histogram, name]
        except KeyError:
            return self._get(name, Histogram, buckets)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every instrument as plain JSON-serializable data."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = {"kind": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"kind": "gauge", "value": instrument.value}
            else:
                out[name] = {
                    "kind": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "mean": instrument.mean,
                    "min": instrument.min if instrument.count else None,
                    "max": instrument.max if instrument.count else None,
                    "p50": instrument.quantile(0.5),
                    "p90": instrument.quantile(0.9),
                    "p99": instrument.quantile(0.99),
                }
        return out


class _NullInstrument:
    """Sink for all instrument calls when telemetry is off."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        return [0.0 for _ in qs]


class NullMetricsRegistry(MetricsRegistry):
    """Metrics disabled: every name resolves to one shared sink."""

    def __init__(self):
        super().__init__()

    def counter(self, name: str):
        return NULL_INSTRUMENT

    def gauge(self, name: str):
        return NULL_INSTRUMENT

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None):
        return NULL_INSTRUMENT

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        return {}


NULL_INSTRUMENT = _NullInstrument()
