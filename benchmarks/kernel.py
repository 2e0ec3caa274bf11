"""Kernel micro-benchmarks and their ratchet against ``BENCH_kernel.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/kernel.py

The script times the suite once, prints the fresh document as JSON on
stdout, and exits 1 (reasons on stderr) when the fresh figures regress
against the committed ``BENCH_kernel.json``.  Redirecting stdout to a
scratch file and moving it over ``BENCH_kernel.json`` refreshes the
floor.  It takes no arguments.

``event_throughput``
    Callbacks/second through the kernel's drain loop: the ceiling on
    any scenario's speed.

``timer_churn``
    Arm-supersede-re-arm cycles/second through
    :class:`~repro.sim.kernel.TimerHandle`.  A fair-share resource's
    completion timer is superseded on every membership change, so lazy
    cancellation is on the scheduler's hot path.

``contended_medium``
    Hundreds of weighted jobs contending for one
    :class:`~repro.sim.FairShareResource` in a single burst.  Its
    ``cost_ratio`` is the best seconds per contended job divided by the
    best seconds per ``event_throughput`` event.  Both timings come from
    the same host in the same run, so host speed divides out: the
    virtual-time scheduler keeps the ratio in single digits, while the
    O(n²) settle-and-rescan scheduler the equivalence tests keep as
    their oracle (``tests/fairshare_legacy.py``) lands in the hundreds.

``null_op``
    The paper's null operation (§4.4, Figure 10) end to end: a small
    seed-1 scenario of null-operation clients, built here
    (:func:`null_op_spec`), run through
    :func:`~repro.scenarios.run_scenario`.  Every operation is pure
    Spectra overhead: the kernel, fair-share CPU charges, power
    metering, telemetry, the resource snapshot and the solver.  Its
    ``cost_ratio`` is the best seconds per operation divided by the
    best seconds per ``event_throughput`` event, so host speed divides
    out here too.

The kernel workloads are closed-form deterministic (amounts and weights
are arithmetic in the job index, no RNG), and the null-operation run is
seeded, so completion sequences are comparable across hosts and runs by
construction.  Timings are best-of-:data:`REPEATS` with
:func:`timeit.repeat`; the best repeat is the run least disturbed by
other load on the host.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
import timeit
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.scenarios import run_scenario
from repro.scenarios.spec import (
    AppSpec,
    ArrivalSpec,
    ClientSpec,
    HostSpec,
    LinkSpec,
    MediumSpec,
    ScenarioSpec,
)
from repro.sim import FairShareResource, Simulator, Timeout

#: the committed floor the fresh run is gated against
COMMITTED = pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernel.json"

#: timed repeats per benchmark; the best is reported
REPEATS = 5

#: callbacks per timed event-throughput run: the rate divides both cost
#: ratios, so one repeat runs about as long as a ``null_op`` repeat, and
#: a host hiccup moves the divisor no more than it moves the dividend
DRAIN_EVENTS = 40_000

#: arm/supersede cycles per timed timer-churn run
CHURN_TIMERS = 20_000

#: concurrent jobs in the contended-medium benchmark: all of them
#: overlap in service
CONTENDED_JOBS = 500

#: capacity of the contended medium, units/second
CONTENDED_CAPACITY = 100.0

#: the contended-medium cost ratio no host may exceed: the virtual-time
#: scheduler sits near 4, the legacy O(n²) one near 200
MAX_COST_RATIO = 25.0

#: null-operation clients sharing one wireless cell and one server, and
#: the measured operations each issues
NULL_OP_CLIENTS = 8
NULL_OP_OPS = 25

#: a fresh cost ratio may not exceed this multiple of the committed one
COST_SLIP = 3.0

#: fresh events/sec may not fall below this fraction of the committed
#: figure; loose on purpose, it catches collapse, not host variance
RATE_SLIP = 0.10

BENCHMARKS = ("event_throughput", "timer_churn", "contended_medium",
              "null_op")

#: the benchmarks whose cost ratio is gated against the committed one
RATIOS = ("contended_medium", "null_op")


def _timed(fn: Callable[[], object], events: int) -> Dict[str, Any]:
    """Best-of-:data:`REPEATS` timing of one call of *fn*, with its rate."""
    # timeit switches the collector off while timing; switch it back on
    # so the storm's allocations cost what they cost in a real run.
    times = timeit.repeat(fn, setup="gc.enable()", number=1, repeat=REPEATS)
    best = min(times)
    return {
        "number": 1,
        "repeats": REPEATS,
        "best_s": best,
        "mean_s": sum(times) / len(times),
        "worst_s": max(times),
        "events_per_s": events / best,
    }


def bench_event_throughput() -> Dict[str, Any]:
    """Drain :data:`DRAIN_EVENTS` chained timeouts through a fresh kernel."""
    def drain() -> None:
        sim = Simulator()

        def ticker():
            for _ in range(DRAIN_EVENTS):
                yield Timeout(0.001)

        sim.run_process(ticker())

    return _timed(drain, DRAIN_EVENTS)


def bench_timer_churn() -> Dict[str, Any]:
    """Arm-supersede-re-arm :data:`CHURN_TIMERS` timers, then drain.

    The drain pops every tombstone, so the timing covers both halves of
    the lazy-cancel protocol.
    """
    def churn() -> None:
        sim = Simulator()
        sink = [0]

        def tick() -> None:
            sink[0] += 1

        handle = sim.timer(1.0, tick)
        for i in range(CHURN_TIMERS):
            handle.cancel()
            handle = sim.timer(1.0 + i * 1e-6, tick)
        sim.run()

    return _timed(churn, CHURN_TIMERS)


def contention_storm(factory: Callable[[Simulator], Any],
                     ) -> Tuple[List[Tuple[int, float]], int]:
    """Run the contended-medium workload; return (completions, events).

    :data:`CONTENDED_JOBS` weighted jobs arrive 1 ms apart on the one
    resource *factory* builds, so effectively all of them are in service
    together.  Completions are ``(job index, simulated time)`` in
    completion order.
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

    for i in range(CONTENDED_JOBS):
        sim.call_at(i * 0.001, submit(i))
    sim.run()
    return completions, sim.events_processed


def bench_contended_medium(throughput: Dict[str, Any]) -> Dict[str, Any]:
    """Time the storm; *throughput* is the ``event_throughput`` entry
    its ``cost_ratio`` divides by."""
    def storm():
        return contention_storm(
            lambda sim: FairShareResource(sim, CONTENDED_CAPACITY))

    _, events = storm()
    doc = _timed(storm, events)
    doc["jobs"] = CONTENDED_JOBS
    # seconds per contended job / seconds per plain kernel event
    doc["cost_ratio"] = (doc["best_s"] / CONTENDED_JOBS
                         * throughput["events_per_s"])
    return doc


def null_op_spec() -> ScenarioSpec:
    """:data:`NULL_OP_CLIENTS` closed-loop null-operation clients in one
    wireless cell with one server: the benchmark ``metro`` workload's
    shape, one cell and a few clients wide."""
    hosts = [HostSpec(name="server", profile="server-b")]
    links = [LinkSpec(a="server", b="fs", bandwidth_bps=500_000.0,
                      latency_s=0.001)]
    clients = []
    for i in range(NULL_OP_CLIENTS):
        name = f"client{i}"
        hosts.append(HostSpec(name=name, profile="ibm-560x", role="client"))
        links.append(LinkSpec(a=name, b="server", medium="cell"))
        links.append(LinkSpec(a=name, b="fs", medium="cell"))
        clients.append(ClientSpec(
            host=name, app="null", servers=("server",),
            arrivals=ArrivalSpec(kind="poisson", rate_ops_per_s=0.05,
                                 n_ops=NULL_OP_OPS),
            training_ops=1,
        ))
    return ScenarioSpec(
        name="kernel-null-op",
        description="null-operation clients in one wireless cell",
        duration_s=900.0,
        seed=1,
        hosts=tuple(hosts),
        media=(MediumSpec(name="cell", bandwidth_bps=250_000.0,
                          latency_s=0.002),),
        links=tuple(links),
        apps=(AppSpec(kind="null"),),
        clients=tuple(clients),
    )


def bench_null_op(throughput: Dict[str, Any]) -> Dict[str, Any]:
    """Time the null-operation run; *throughput* is the
    ``event_throughput`` entry its ``cost_ratio`` divides by."""
    spec = null_op_spec()
    ops = len(run_scenario(spec).ops)
    doc = _timed(lambda: run_scenario(spec), ops)
    doc["ops"] = ops
    # seconds per null operation / seconds per plain kernel event
    doc["cost_ratio"] = doc["best_s"] / ops * throughput["events_per_s"]
    return doc


def run_suite() -> Dict[str, Any]:
    """Time every benchmark; the ``BENCH_kernel.json`` document."""
    throughput = bench_event_throughput()
    contended = bench_contended_medium(throughput)
    return {
        "suite": "kernel",
        "python": "%d.%d.%d" % sys.version_info[:3],
        "platform": sys.platform,
        "benchmarks": {
            "event_throughput": throughput,
            "timer_churn": bench_timer_churn(),
            "contended_medium": contended,
            "null_op": bench_null_op(throughput),
        },
    }


def _figure(doc: Any, name: str, key: str) -> Optional[float]:
    """``doc["benchmarks"][name][key]`` if it is a finite number."""
    try:
        value = doc["benchmarks"][name][key]
    except (KeyError, TypeError):
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if math.isfinite(value) else None


def ratchet(fresh: Any, committed: Any) -> List[str]:
    """Regression gates of *fresh* against *committed*; failure messages.

    The cost ratios are the primary gates because each one's two
    timings come from the same host, so runner speed cancels; raw
    events/sec (operations/sec for ``null_op``) fails only on collapse.
    A gated figure that is missing, not a number or not finite in
    either document fails too: a NaN compares false with everything, so
    it would otherwise pass every gate.
    """
    gated = [(name, "cost_ratio") for name in RATIOS]
    gated += [(name, "events_per_s") for name in BENCHMARKS]
    figures: Dict[Tuple[str, str, str], float] = {}
    failures: List[str] = []
    for label, doc in (("fresh", fresh), ("committed", committed)):
        for name, key in gated:
            value = _figure(doc, name, key)
            if value is None:
                failures.append(f"{label} benchmarks.{name}.{key} is "
                                f"missing or not a finite number")
            else:
                figures[label, name, key] = value
    if failures:
        return failures

    ratio = figures["fresh", "contended_medium", "cost_ratio"]
    if ratio > MAX_COST_RATIO:
        failures.append(
            f"contended_medium cost ratio {ratio:.2f} above the "
            f"absolute ceiling {MAX_COST_RATIO:.1f}"
        )
    for name in RATIOS:
        ratio = figures["fresh", name, "cost_ratio"]
        committed_ratio = figures["committed", name, "cost_ratio"]
        if ratio > COST_SLIP * committed_ratio:
            failures.append(
                f"{name} cost ratio {ratio:.2f} above "
                f"{COST_SLIP:.1f}x the committed {committed_ratio:.2f}"
            )
    for name in BENCHMARKS:
        rate = figures["fresh", name, "events_per_s"]
        committed_rate = figures["committed", name, "events_per_s"]
        if rate < RATE_SLIP * committed_rate:
            failures.append(
                f"{name} events/sec collapsed: {rate:,.0f} < "
                f"{RATE_SLIP:.0%} of committed {committed_rate:,.0f}"
            )
    return failures


def main() -> int:
    try:
        committed = json.loads(COMMITTED.read_text())
    except (OSError, ValueError) as exc:
        print(f"ratchet: cannot read {COMMITTED.name}: {exc}",
              file=sys.stderr)
        committed = None
    fresh = run_suite()
    print(json.dumps(fresh, indent=2, sort_keys=True))
    failures = ratchet(fresh, committed)
    for failure in failures:
        print(f"ratchet: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
