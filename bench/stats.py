"""Order statistics the benchmark reports.

A timing is reported as its median and as the highest percentile of
:data:`TAIL_LADDER` that still has at least ``min_beyond`` samples above
it, with the sample count, so that a tail figure never rests on one or
two samples.  Percentiles use the nearest-rank definition: the q-th
percentile of n ordered samples is the ``ceil(q/100 * n)``-th of them.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(first, third) quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(ordered: List[float], q: float) -> float:
    return ordered[rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    return n - rank(n, q)


def tail_percentile(ordered: List[float], min_beyond: int = 10
                    ) -> Optional[Tuple[float, float, int]]:
    """(q, value, samples beyond) of the highest q of :data:`TAIL_LADDER`
    that keeps at least *min_beyond* samples above it; None if none does."""
    n = len(ordered)
    for q in TAIL_LADDER:
        beyond = samples_beyond(n, q)
        if beyond >= min_beyond:
            return q, percentile(ordered, q), beyond
    return None
