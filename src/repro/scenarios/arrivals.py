"""Seeded traffic generation: arrival processes and think times.

Everything here is pure computation over an explicitly seeded
``random.Random`` — no wall clock, no global generator state — so the
same :class:`~repro.scenarios.spec.ScenarioSpec` and seed produce the
same issue times on every run, on every machine.

Arrival times are *offsets from the start of the measured phase*; the
runner anchors them to whatever simulated moment training and settling
finished at.
"""

from __future__ import annotations

import random
import zlib
from typing import List

from .spec import ArrivalSpec, ThinkSpec

#: Hard cap on generated arrivals per client, against degenerate specs
#: (e.g. a 1e6-second duration at 100 ops/s) hanging the runner.
MAX_ARRIVALS = 10_000


def derive_seed(base: int, *names: str) -> int:
    """A stable per-component seed from the scenario seed and a path.

    Uses CRC32 (not ``hash``) so the derivation survives
    ``PYTHONHASHSEED`` randomization and is identical across processes
    and platforms.
    """
    value = base & 0xFFFFFFFF
    for name in names:
        value = zlib.crc32(name.encode("utf-8"), value)
    return value


def generate_arrivals(spec: ArrivalSpec, rng: random.Random,
                      duration_s: float) -> List[float]:
    """Issue-time offsets in ``[0, duration_s)``, sorted ascending.

    Always returns at least one arrival: a client that exists generates
    traffic, even if the (scaled-down) duration left no room for its
    process — otherwise a smoke profile could silently test nothing.
    A generated process stops drawing at ``n_ops`` arrivals.
    """
    cap = MAX_ARRIVALS if spec.n_ops is None else min(MAX_ARRIVALS,
                                                      spec.n_ops)
    if spec.kind == "poisson":
        times = _poisson(rng, spec.rate_ops_per_s, 0.0, duration_s, cap)
    elif spec.kind == "fixed":
        interval = 1.0 / spec.rate_ops_per_s
        times, t = [], interval
        while t < duration_s and len(times) < cap:
            times.append(t)
            t += interval
    elif spec.kind == "onoff":
        times, t = [], 0.0
        while t < duration_s and len(times) < cap:
            times.extend(_poisson(rng, spec.rate_ops_per_s, t,
                                  min(t + spec.on_s, duration_s),
                                  cap - len(times)))
            t += spec.on_s + spec.off_s
            if spec.off_s <= 0 and spec.on_s <= 0:
                break
    elif spec.kind == "trace":
        times = [t for t in spec.times if t < duration_s][:spec.n_ops]
    else:  # pragma: no cover - validate() rejects unknown kinds
        raise ValueError(f"unknown arrival kind {spec.kind!r}")

    if not times:
        times = [0.0]
    return times


def _poisson(rng: random.Random, rate: float, start: float,
             end: float, cap: int) -> List[float]:
    times = []
    t = start + rng.expovariate(rate)
    while t < end and len(times) < cap:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def think_time(spec: ThinkSpec, rng: random.Random) -> float:
    """One think-time draw (seconds); 0 for the ``none`` model."""
    if spec.kind == "none":
        return 0.0
    if spec.kind == "constant":
        return spec.mean_s
    if spec.kind == "exponential":
        return rng.expovariate(1.0 / spec.mean_s)
    raise ValueError(f"unknown think kind {spec.kind!r}")
