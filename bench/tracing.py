"""Per-layer tracing for the benchmark's traced run.

The wrappers live here, in the benchmark, around the program's public
layer entry points; nothing inside ``src/`` is edited.  Two kinds exist:

* Plain functions get a host-time span: name, layer, start, end and the
  span that was open when it started (its parent).  Spans are kept in
  memory as parallel arrays and written out as JSONL after the run.
* Generator entry points (simulated processes) get a ``yield from``
  wrapper that counts calls and adds up the simulated seconds from the
  first resume to the return.  Their host time stays with whichever span
  is open while they run, because a suspended generator cannot hold a
  host-time span open.

Where a caller imported a name directly, the caller's module attribute
is patched (``repro.scenarios.runner.compile_scenario``); everything else
is a class attribute.  :func:`traced` installs every wrapper and restores
the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, name) of every host-time span kind
COMPILE = ("scenarios", "compile_scenario")
SIM_RUN = ("sim", "run")
SIM_RUN_PROCESS = ("sim", "run_process")
LOG_SCAN = ("network", "log_scan")
SNAPSHOT = ("monitors", "predict_all")
PREDICT = ("predictors", "predict")
OBSERVE = ("predictors", "observe_operation")
SOLVE = ("solver", "solve")
SPAN_KINDS = (COMPILE, SIM_RUN, SIM_RUN_PROCESS, LOG_SCAN, SNAPSHOT,
              PREDICT, OBSERVE, SOLVE)
#: the spans that make up one decision: snapshot, prediction and search
DECISION = (SNAPSHOT, PREDICT, SOLVE)


class SpanLog:
    """Host-time spans and counters of one traced run, held in memory."""

    def __init__(self, run_id: str = "run",
                 clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self._clock = clock
        self.origin = clock()
        self.kind = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: counts and simulated-second sums keyed by metric name
        self.counts: Counter = Counter()
        #: the simulator currently inside run()/run_process(); generator
        #: wrappers read simulated time from it
        self.sim = None

    @property
    def span_count(self) -> int:
        return len(self.kind)

    def open(self, kind: int) -> int:
        span = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self._clock())
        self.end.append(0.0)
        self._stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.end[span] = self._clock()
        self._stack.pop()

    def durations(self) -> List[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover.

        Spans of one thread nest properly, so children never overlap each
        other and their durations can simply be subtracted.
        """
        own = self.durations()
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def totals(self) -> Dict[Tuple[str, str], Tuple[int, float, float]]:
        """(count, inclusive seconds, self seconds) per span kind."""
        count = [0] * len(SPAN_KINDS)
        inclusive = [0.0] * len(SPAN_KINDS)
        own = [0.0] * len(SPAN_KINDS)
        for kind, duration, self_time in zip(self.kind, self.durations(),
                                             self.self_times()):
            count[kind] += 1
            inclusive[kind] += duration
            own[kind] += self_time
        return {key: (count[i], inclusive[i], own[i])
                for i, key in enumerate(SPAN_KINDS)}

    def outermost_seconds(self, kinds) -> float:
        """Inclusive seconds of spans of *kinds* not nested in another."""
        wanted = {SPAN_KINDS.index(k) for k in kinds}
        total = 0.0
        for span, kind in enumerate(self.kind):
            if kind not in wanted:
                continue
            parent = self.parent[span]
            while parent >= 0 and self.kind[parent] not in wanted:
                parent = self.parent[parent]
            if parent < 0:
                total += self.end[span] - self.start[span]
        return total

    def children_of(self, child, parent) -> int:
        """Number of *child* spans whose parent is a *parent* span."""
        c, p = SPAN_KINDS.index(child), SPAN_KINDS.index(parent)
        return sum(1 for kind, up in zip(self.kind, self.parent)
                   if kind == c and up >= 0 and self.kind[up] == p)

    def root_seconds(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)

    def write_jsonl(self, fh) -> int:
        """One JSON object per span; times are seconds since the log began."""
        run = json.dumps(self.run_id)
        names = [(json.dumps(layer), json.dumps(name))
                 for layer, name in SPAN_KINDS]
        origin = self.origin
        for span, (kind, parent, start, end) in enumerate(
                zip(self.kind, self.parent, self.start, self.end)):
            layer, name = names[kind]
            fh.write(
                f'{{"id": {span}, "name": {name}, "layer": {layer}, '
                f'"start": {start - origin!r}, "end": {end - origin!r}, '
                f'"parent": {parent if parent >= 0 else "null"}, '
                f'"run": {run}}}\n'
            )
        return self.span_count


# -- wrappers --------------------------------------------------------------------------


def span_wrapper(log: SpanLog, fn: Callable, key: Tuple[str, str]) -> Callable:
    """*fn* inside a host-time span of kind *key*."""
    kind = SPAN_KINDS.index(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = log.open(kind)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(span)
    return wrapper


def count_wrapper(log: SpanLog, fn: Callable, metric: str) -> Callable:
    """*fn*, counting its calls under *metric*."""
    counts = log.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[metric] += 1
        return fn(*args, **kwargs)
    return wrapper


def generator_wrapper(log: SpanLog, fn: Callable, prefix: str,
                      start: Optional[Callable] = None,
                      finish: Optional[Callable] = None) -> Callable:
    """A generator function whose generators count calls and simulated time.

    Adds to ``<prefix>.calls``, ``<prefix>.sim_s`` and, for generators
    that end by raising (including ``close``), ``<prefix>.raised``.
    ``start(counts, *args, **kwargs)`` runs at the first resume and may
    return False to leave that call uncounted; ``finish(counts, result)``
    sees the return value.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        outer = _delegate(log, inner, prefix, start, finish, args, kwargs)
        # The kernel names an unnamed process after its generator.
        outer.__name__ = inner.__name__
        outer.__qualname__ = inner.__qualname__
        return outer
    return wrapper


def _delegate(log, inner, prefix, start, finish, args, kwargs):
    counts = log.counts
    if start is not None and start(counts, *args, **kwargs) is False:
        return (yield from inner)
    counts[prefix + ".calls"] += 1
    sim = log.sim
    t0 = sim.now if sim is not None else 0.0
    try:
        result = yield from inner
    except BaseException:
        counts[prefix + ".raised"] += 1
        if sim is not None:
            counts[prefix + ".sim_s"] += sim.now - t0
        raise
    if sim is not None:
        counts[prefix + ".sim_s"] += sim.now - t0
    if finish is not None:
        finish(counts, result)
    return result


def _sim_wrapper(log: SpanLog, fn: Callable, key) -> Callable:
    """Simulator.run/run_process: a span, the event count, the clock."""
    kind = SPAN_KINDS.index(key)
    counts = log.counts

    @functools.wraps(fn)
    def wrapper(sim, *args, **kwargs):
        outer_sim, log.sim = log.sim, sim
        before = sim.events_processed
        span = log.open(kind)
        try:
            return fn(sim, *args, **kwargs)
        finally:
            log.close(span)
            if outer_sim is None:
                counts["sim.events"] += sim.events_processed - before
            log.sim = outer_sim
    return wrapper


def _log_scan_wrapper(log: SpanLog, fn: Callable) -> Callable:
    """TransferLog.recent: a span, plus records returned against log size."""
    kind = SPAN_KINDS.index(LOG_SCAN)
    counts = log.counts

    @functools.wraps(fn)
    def wrapper(transfer_log, *args, **kwargs):
        span = log.open(kind)
        try:
            result = fn(transfer_log, *args, **kwargs)
        finally:
            log.close(span)
        counts["network.log_records_scanned"] += len(transfer_log)
        counts["network.log_records_returned"] += len(result)
        return result
    return wrapper


def _transfer_start(counts, network, src, dst, nbytes, kind="bulk"):
    if src == dst:
        return False  # loopback never reaches the network or its log
    counts["network.transfer_bytes"] += nbytes
    return True


def _reintegrate_finish(counts, elapsed):
    if elapsed:
        counts["coda.reintegrations"] += 1


def _end_op_finish(counts, report):
    if report.failed_over:
        counts["core.failovers"] += 1


def _entry_points():
    """(owner, attribute, factory(log, original)) for every wrapped name."""
    from repro.coda.client import CodaClient
    from repro.core.client import SpectraClient
    from repro.core.estimate import DemandEstimator
    from repro.faults.injector import FaultInjector
    from repro.monitors.base import MonitorSet
    from repro.network.stats import TransferLog
    from repro.network.topology import Network
    from repro.predictors.base import OperationDemandPredictor
    from repro.rpc.transport import RetryPolicy, RpcTransport
    from repro.scenarios import runner
    from repro.sim.kernel import Simulator
    from repro.sim.resources import FairShareResource
    from repro.solver.heuristic import HeuristicSolver

    def span(key):
        return lambda log, fn: span_wrapper(log, fn, key)

    def count(metric):
        return lambda log, fn: count_wrapper(log, fn, metric)

    def gen(prefix, start=None, finish=None):
        return lambda log, fn: generator_wrapper(log, fn, prefix, start, finish)

    return [
        (runner, "compile_scenario", span(COMPILE)),
        (Simulator, "run", lambda log, fn: _sim_wrapper(log, fn, SIM_RUN)),
        (Simulator, "run_process",
         lambda log, fn: _sim_wrapper(log, fn, SIM_RUN_PROCESS)),
        (FairShareResource, "submit", count("sim.fairshare_submits")),
        (TransferLog, "recent", _log_scan_wrapper),
        (Network, "transfer", gen("network.transfer", start=_transfer_start)),
        (MonitorSet, "predict_all", span(SNAPSHOT)),
        (DemandEstimator, "predict", span(PREDICT)),
        (OperationDemandPredictor, "observe_operation", span(OBSERVE)),
        (HeuristicSolver, "solve", span(SOLVE)),
        (SpectraClient, "begin_fidelity_op", gen("core.begin")),
        (SpectraClient, "end_fidelity_op",
         gen("core.end", finish=_end_op_finish)),
        (SpectraClient, "abort_fidelity_op", count("core.ops_aborted")),
        (RpcTransport, "call", gen("rpc.call")),
        (RetryPolicy, "backoff_s", count("rpc.retries")),
        (CodaClient, "access", gen("coda.access")),
        (CodaClient, "modify", gen("coda.modify")),
        (CodaClient, "reintegrate_volume",
         gen("coda.reintegrate", finish=_reintegrate_finish)),
        (FaultInjector, "apply", count("faults.injected")),
    ]


@contextlib.contextmanager
def traced(log: SpanLog) -> Iterator[SpanLog]:
    """Install every wrapper around *log* for the duration of the block."""
    originals = []
    try:
        for owner, attr, factory in _entry_points():
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, factory(log, original))
        yield log
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------------


def layer_metrics(log: SpanLog, traced_wall_s: float, untraced_wall_s: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    *untraced_wall_s* is the same workload's untraced wall time, the base
    for the host time per event and the tracing overhead.
    """
    c = log.counts
    totals = log.totals()
    n_spans = {key: totals[key][0] for key in SPAN_KINDS}
    own = {key: totals[key][2] for key in SPAN_KINDS}
    events = c["sim.events"]
    scanned = c["network.log_records_scanned"]
    begun = c["core.begin.calls"]
    aborted = c["core.ops_aborted"]
    solves = n_spans[SOLVE]
    calls = c["rpc.call.calls"]
    return {
        "scenarios.compile_s": (totals[COMPILE][1], "s"),
        "sim.events": (events, "count"),
        "sim.host_us_per_event": (_ratio(untraced_wall_s * 1e6, events), "us"),
        "sim.fairshare_submits": (c["sim.fairshare_submits"], "count"),
        "sim.self_s": (own[SIM_RUN] + own[SIM_RUN_PROCESS], "s"),
        "network.log_scans": (n_spans[LOG_SCAN], "count"),
        "network.log_scan_self_s": (own[LOG_SCAN], "s"),
        "network.log_scan_useful_frac": (
            _ratio(c["network.log_records_returned"], scanned), "frac"),
        "network.transfers": (c["network.transfer.calls"], "count"),
        "network.transfer_bytes": (c["network.transfer_bytes"], "bytes"),
        "network.transfer_wait_sim_s": (c["network.transfer.sim_s"], "sim_s"),
        "network.transfers_aborted": (c["network.transfer.raised"], "count"),
        "monitors.snapshots": (n_spans[SNAPSHOT], "count"),
        "monitors.snapshot_s": (totals[SNAPSHOT][1], "s"),
        "monitors.snapshot_self_s": (own[SNAPSHOT], "s"),
        "predictors.predicts": (n_spans[PREDICT], "count"),
        "predictors.predict_self_s": (own[PREDICT], "s"),
        "predictors.observes": (n_spans[OBSERVE], "count"),
        "predictors.observe_self_s": (own[OBSERVE], "s"),
        "solver.solves": (solves, "count"),
        "solver.solve_self_s": (own[SOLVE], "s"),
        "solver.predicts_per_solve": (
            _ratio(log.children_of(PREDICT, SOLVE), solves), "count/solve"),
        "core.ops_begun": (begun, "count"),
        "core.ops_aborted": (aborted, "count"),
        "core.abort_frac": (_ratio(aborted, begun), "frac"),
        "core.failovers": (c["core.failovers"], "count"),
        "core.decision_us_per_op": (
            _ratio(log.outermost_seconds(DECISION) * 1e6, begun), "us"),
        "rpc.calls": (calls, "count"),
        "rpc.wait_sim_s": (c["rpc.call.sim_s"], "sim_s"),
        "rpc.retries": (c["rpc.retries"], "count"),
        "rpc.retries_per_call": (_ratio(c["rpc.retries"], calls), "count/call"),
        "rpc.failures": (c["rpc.call.raised"], "count"),
        "coda.accesses": (c["coda.access.calls"], "count"),
        "coda.modifies": (c["coda.modify.calls"], "count"),
        "coda.reintegrations": (c["coda.reintegrations"], "count"),
        "coda.reintegrate_wait_sim_s": (c["coda.reintegrate.sim_s"], "sim_s"),
        "faults.injected": (c["faults.injected"], "count"),
        "trace.overhead_frac": (
            _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s), "frac"),
        "trace.unattributed_frac": (
            1.0 - _ratio(log.root_seconds(), traced_wall_s), "frac"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
