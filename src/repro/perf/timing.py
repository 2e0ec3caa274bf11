"""Wall-clock measurement primitives for the bench harness.

This is the **only** module in ``src/repro`` allowed to read the host
clock: every simulated figure the reproduction reports comes from
``Simulator.now``, and the SPC001 lint rule bans ``time.*`` everywhere
else.  The bench harness is the deliberate exception — its whole point
is to measure how much *host* CPU the kernel and its schedulers burn —
so SPC001 carves out exactly this file (see
``repro.analysis.rules.wallclock.WallClockRule.default_exclude``).

Methodology: ``best-of-R × N`` in the ``timeit`` tradition.  Each
*repeat* times ``number`` back-to-back calls and the suite reports the
**best** repeat — the run least disturbed by scheduler noise, GC, and
frequency scaling.  Mean-of-repeats is also recorded for honesty about
spread, but comparisons (and the speedup in ``BENCH_kernel.json``)
use the best, which is the stablest estimator of intrinsic cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List


@dataclass(frozen=True)
class Measurement:
    """Wall-clock cost of one benchmarked callable."""

    name: str
    #: timed calls per repeat
    number: int
    #: independent repeats; best is reported
    repeats: int
    #: per-call seconds of the best (fastest) repeat
    best_s: float
    #: per-call seconds averaged over all repeats
    mean_s: float
    #: per-call seconds of the worst repeat (spread diagnostic)
    worst_s: float

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "repeats": self.repeats,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "worst_s": self.worst_s,
        }


def measure(name: str, fn: Callable[[], object], *, number: int = 10,
            repeats: int = 5,
            setup: Callable[[], None] = None) -> Measurement:
    """Time ``fn`` as best-of-*repeats*, *number* calls per repeat.

    ``setup`` (if given) runs before *every* repeat, outside the timed
    region — use it to reset caches so each repeat starts in the same
    state (a cold-path benchmark that only evicts before the first
    repeat would time the warm path four times out of five).
    """
    if number < 1 or repeats < 1:
        raise ValueError(f"number and repeats must be >= 1: "
                         f"{number}, {repeats}")
    per_call: List[float] = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        per_call.append(elapsed / number)
    return Measurement(
        name=name,
        number=number,
        repeats=repeats,
        best_s=min(per_call),
        mean_s=sum(per_call) / len(per_call),
        worst_s=max(per_call),
    )


def stopwatch() -> Callable[[], float]:
    """A started stopwatch: call the returned function for elapsed seconds.

    For one-shot timings where the repeat-N-take-best protocol is too
    expensive.
    """
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0
