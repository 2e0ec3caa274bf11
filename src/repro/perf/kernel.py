"""The ``kernel`` bench suite: event-loop and scheduler throughput.

Three benchmarks, written to ``BENCH_kernel.json``:

``event_throughput``
    Raw callbacks/second through the kernel's inlined drain loop — the
    hard ceiling on any scenario's speed.

``timer_churn``
    Arm-supersede-re-arm cycles/second through
    :class:`~repro.sim.kernel.TimerHandle`.  This is the fair-share
    completion-timer pattern: every membership change may supersede the
    armed timer, so lazy cancellation is on the scheduler's hot path.

``contended_medium``
    The macro benchmark the virtual-time scheduler exists for: hundreds
    of weighted jobs contending for one :class:`FairShareResource` in a
    single burst.  Besides its timing, the entry records ``cost_ratio``:
    the best seconds per contended job divided by the best seconds per
    ``event_throughput`` event.  Both timings come from the same host
    in the same run, so host speed divides out; the O(n log n)
    scheduler keeps the ratio in single digits, while an O(n²) one
    (the legacy settle-and-rescan scheduler the equivalence tests keep
    as their oracle) lands in the hundreds.  The ratchet in
    :mod:`.cli` gates on it.

All workloads are closed-form deterministic (amounts and weights are
arithmetic in the job index) — no RNG, so the completion sequences are
comparable across hosts and runs by construction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..sim import FairShareResource, Simulator, Timeout
from .timing import measure

#: callbacks per timed event-throughput run
DRAIN_EVENTS = 20_000

#: arm/supersede cycles per timed timer-churn run
CHURN_TIMERS = 20_000

#: concurrent jobs in the contended-medium macro benchmark — the
#: acceptance workload: all of them overlap in service
CONTENDED_JOBS = 500

#: capacity of the contended medium, units/second
CONTENDED_CAPACITY = 100.0


def _with_rate(measurement, events: int) -> Dict[str, object]:
    """Measurement dict plus the derived events/second figure."""
    doc = measurement.to_dict()
    doc["events_per_s"] = events / measurement.best_s
    return doc


def bench_event_throughput(*, repeats: int) -> Dict[str, object]:
    """Drain :data:`DRAIN_EVENTS` chained timeouts through a fresh kernel."""
    def drain():
        sim = Simulator()

        def ticker():
            for _ in range(DRAIN_EVENTS):
                yield Timeout(0.001)

        sim.run_process(ticker())

    result = measure("event_throughput", drain, number=1, repeats=repeats)
    return _with_rate(result, DRAIN_EVENTS)


def bench_timer_churn(*, repeats: int) -> Dict[str, object]:
    """Arm-supersede-re-arm :data:`CHURN_TIMERS` timers, then drain.

    Each cycle arms a timer and immediately supersedes it with a later
    one, the way a fair-share resource's completion timer is superseded
    by every arrival.  The drain then pops every tombstone, so the
    timing covers both halves of the lazy-cancel protocol.
    """
    def churn():
        sim = Simulator()
        sink = [0]

        def tick() -> None:
            sink[0] += 1

        handle = sim.timer(1.0, tick)
        for i in range(CHURN_TIMERS):
            handle.cancel()
            handle = sim.timer(1.0 + i * 1e-6, tick)
        sim.run()

    result = measure("timer_churn", churn, number=1, repeats=repeats)
    return _with_rate(result, CHURN_TIMERS)


def _contention_storm(factory: Callable[[Simulator], object],
                      jobs: int) -> Tuple[List[Tuple[int, float]], int]:
    """Run the contended-medium workload; return (completions, events).

    *jobs* weighted jobs arrive 1 ms apart on one shared resource, so
    effectively all of them are in service together.  Amounts and
    weights are closed-form in the index (no RNG — SPC002 and
    cross-scheduler comparability both want determinism).
    """
    sim = Simulator()
    resource = factory(sim)
    completions: List[Tuple[int, float]] = []

    def submit(i: int) -> Callable[[], None]:
        def run() -> None:
            job = resource.submit(50.0 + (i * 37) % 400,
                                  weight=1.0 + (i % 3))
            job.done.add_callback(
                lambda _event: completions.append((i, sim.now))
            )
        return run

    for i in range(jobs):
        sim.call_at(i * 0.001, submit(i))
    sim.run()
    return completions, sim.events_processed


def bench_contended_medium(*, repeats: int,
                           jobs: int = CONTENDED_JOBS) -> Dict[str, object]:
    """Timing of a *jobs*-way contention storm on the shipping scheduler."""
    def storm():
        return _contention_storm(
            lambda sim: FairShareResource(sim, CONTENDED_CAPACITY), jobs)

    _, events = storm()
    doc = _with_rate(measure("contended_medium", storm, number=1,
                             repeats=repeats), events)
    doc["jobs"] = jobs
    return doc


def run_kernel_suite(quick: bool = True) -> Dict[str, object]:
    """All kernel benchmarks; the ``BENCH_kernel`` payload.

    The contention storm always runs the full :data:`CONTENDED_JOBS`
    jobs, even under ``--quick``: the cost ratio only separates
    O(n log n) from O(n²) at that scale, and one storm is cheap enough
    for CI.  ``quick`` trims repeats only.
    """
    repeats = 2 if quick else 5
    throughput = bench_event_throughput(repeats=repeats)
    contended = bench_contended_medium(repeats=repeats, jobs=CONTENDED_JOBS)
    # seconds per contended job / seconds per plain kernel event
    contended["cost_ratio"] = (contended["best_s"] / contended["jobs"]
                               * throughput["events_per_s"])
    return {
        "event_throughput": throughput,
        "timer_churn": bench_timer_churn(repeats=repeats),
        "contended_medium": contended,
    }
