"""The scenario runner: spec in, deterministic report out.

Running a scenario has four phases, all on the simulation clock:

1. **Compile** the spec into a live world (:mod:`.compiler`).
2. **Train**: each client runs its ``training_ops`` forced-alternative
   operations (the paper's regimen) so demand models have history, then
   the world settles for ``settle_s`` simulated seconds and every client
   re-polls its servers.
3. **Measure**: the environment timeline is armed (anchored to the end
   of warmup) and every client's seeded arrival process issues
   operations — concurrently across clients, with per-client think
   times — until all generated operations complete.
4. **Report**: latency mean/p50/p95, energy, the fidelity/plan mix,
   failover and retry counters from telemetry, the fault journal, and
   bytes moved over the network, assembled into a JSON-stable
   :class:`ScenarioReport`.

A timeline event may instead be anchored inside one measured operation.
A spec with such events runs twice on fresh worlds: fault-free first,
which places each anchored event and is the report's ``baseline``, then
with every fault armed.

Same spec + same seed ⇒ byte-identical report JSON: the simulator is
deterministic, every random draw comes from a seeded generator derived
from the scenario seed, and the report serializer sorts every key.
"""

from __future__ import annotations

import dataclasses
import json
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..core.client import NoFeasibleAlternativeError, OperationReport
from ..core.plans import Alternative
from ..rpc import RetryPolicy, RpcError
from ..sim import AllOf, Timeout
from ..telemetry import Telemetry
from ..telemetry.names import REPORT_COUNTERS
from .arrivals import derive_seed, generate_arrivals, think_time
from .compiler import CompiledClient, CompiledScenario, compile_scenario
from .spec import ScenarioError, ScenarioSpec, TimelineEventSpec
from .timeline import event_faults

if TYPE_CHECKING:
    from ..predictors.store import PredictorStore

#: Run profiles: ``full`` runs the spec as written; ``smoke`` shrinks it
#: to CI size (short duration, few ops, little training).
PROFILES = ("full", "smoke")

#: Called with each completed measured operation's report.
OpHook = Callable[[OperationReport], None]

#: Measured-phase retry policy, derived from the scenario seed; armed
#: only when the scenario has an environment timeline to survive.
def _retry_policy(seed: int) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=3, timeout_s=600.0,
        backoff_base_s=0.5, backoff_multiplier=2.0, backoff_max_s=5.0,
        jitter=0.1, seed=derive_seed(seed, "retry"),
    )


def smoke_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """A CI-sized version of *spec*: same world, much less traffic."""
    ops = 2
    clients = tuple(
        dataclasses.replace(
            client,
            training_ops=min(client.training_ops, 4),
            arrivals=dataclasses.replace(
                client.arrivals,
                n_ops=min(client.arrivals.n_ops or ops, ops),
            ),
        )
        for client in spec.clients
    )
    # An anchor on an operation past the shrunk n_ops goes with it (an
    # anchor past a client's own smaller n_ops is an error either way).
    return dataclasses.replace(
        spec,
        duration_s=min(spec.duration_s, 30.0),
        settle_s=min(spec.settle_s, 10.0),
        clients=clients,
        timeline=tuple(
            e for e in spec.timeline
            if e.at_s < 30.0 and (e.anchor is None or e.anchor.op < ops)
        ),
    )


@dataclass(slots=True)
class OpRecord:
    """One measured operation as the runner saw it.

    A completed operation holds the :class:`~repro.core.plans.Alternative`
    it ran and reads its plan, server and fidelity off it; a failed one
    has none.  A report builds its records when they are read, from its
    :class:`ClientOps` columns.
    """

    client: str
    index: int
    issued_at_s: float
    elapsed_s: float = 0.0
    alternative: Optional[Alternative] = None
    failed_over: bool = False
    completed: bool = False
    error: str = ""

    @property
    def plan(self) -> str:
        return "" if self.alternative is None else self.alternative.plan.name

    @property
    def server(self) -> Optional[str]:
        return None if self.alternative is None else self.alternative.server

    @property
    def fidelity(self) -> Tuple[Tuple[str, Any], ...]:
        """The fidelity as sorted (dimension, value) pairs."""
        return () if self.alternative is None else self.alternative.fidelity


class ClientOps:
    """One client's measured operations as columns, in index order.

    ``choice`` indexes the run's list of chosen alternatives; a failed
    operation has none (-1), so it is also the completed flag, and only
    a failed one has an entry in ``errors``.  Measured usage and the
    solver's prediction reach :func:`run_scenario`'s ``on_op`` hook and
    are not kept.
    """

    __slots__ = ("issued_at_s", "elapsed_s", "choice", "failed_over",
                 "errors")

    def __init__(self) -> None:
        self.issued_at_s = array("d")
        self.elapsed_s = array("d")
        self.choice = array("i")
        self.failed_over = bytearray()
        self.errors: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.choice)

    def add(self, issued_at_s: float, elapsed_s: float = 0.0,
            choice: int = -1, failed_over: bool = False) -> None:
        self.issued_at_s.append(issued_at_s)
        self.elapsed_s.append(elapsed_s)
        self.choice.append(choice)
        self.failed_over.append(failed_over)

    def latencies(self) -> List[float]:
        return [latency for latency, choice
                in zip(self.elapsed_s, self.choice) if choice >= 0]


class OpRecords(Sequence):
    """A run's measured operations in (client, index) order: a
    read-only sequence of :class:`OpRecord`, each built when read."""

    def __init__(self, clients: Dict[str, ClientOps],
                 choices: List[Alternative]):
        self.clients = dict(sorted(clients.items()))
        self.choices = choices

    def __len__(self) -> int:
        return sum(map(len, self.clients.values()))

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        position = item + len(self) if item < 0 else item
        for name, ops in self.clients.items():
            if 0 <= position < len(ops):
                return self._record(name, ops, position)
            position -= len(ops)
        raise IndexError("operation index out of range")

    def __iter__(self):
        for name, ops in self.clients.items():
            for index in range(len(ops)):
                yield self._record(name, ops, index)

    def _record(self, name: str, ops: ClientOps, index: int) -> OpRecord:
        choice = ops.choice[index]
        return OpRecord(
            client=name, index=index, issued_at_s=ops.issued_at_s[index],
            elapsed_s=ops.elapsed_s[index],
            alternative=None if choice < 0 else self.choices[choice],
            failed_over=bool(ops.failed_over[index]),
            completed=choice >= 0, error=ops.errors.get(index, ""))


@dataclass
class ScenarioReport:
    """Everything one scenario run produced, JSON-stable."""

    scenario: str
    seed: int
    profile: str
    duration_s: float
    sim_time_s: float
    ops: OpRecords
    energy_j: Dict[str, float]
    counters: Dict[str, float]
    fault_journal: List[str]
    bytes_transferred: int
    transfers: int
    #: per-client digest of persisted predictor state; present only when
    #: the run used a predictor store (reports without one stay
    #: byte-identical to pre-store builds)
    predictor_state: Optional[Dict[str, str]] = None
    #: the fault-free run of the same spec; present only when the spec
    #: has anchored timeline events
    baseline: Optional["ScenarioReport"] = None

    # -- derived views -------------------------------------------------------------

    @property
    def completed(self) -> bool:
        return all(-1 not in ops.choice for ops in self.ops.clients.values())

    def latencies(self) -> List[float]:
        return [latency for ops in self.ops.clients.values()
                for latency in ops.latencies()]

    def to_dict(self) -> Dict[str, Any]:
        per_client = {name: self._client_section(name, ops)
                      for name, ops in self.ops.clients.items()}
        data = {
            "scenario": self.scenario,
            "seed": self.seed,
            "profile": self.profile,
            "duration_s": _round(self.duration_s),
            "sim_time_s": _round(self.sim_time_s),
            "clients": per_client,
            "totals": {
                key: sum(section[key] for section in per_client.values())
                for key in ("ops", "completed", "failed", "failovers")
            } | {
                "latency": _latency_stats(self.latencies()),
                "energy_j": _round(sum(self.energy_j.values())),
                "bytes_transferred": self.bytes_transferred,
                "transfers": self.transfers,
            },
            "counters": {name: _round(value)
                         for name, value in sorted(self.counters.items())},
            "faults": list(self.fault_journal),
        }
        if self.predictor_state is not None:
            data["predictor_state"] = dict(sorted(
                self.predictor_state.items()
            ))
        if self.baseline is not None:
            data["baseline"] = self._baseline_section()
        return data

    def _baseline_section(self) -> Dict[str, Any]:
        """Each client's fault-free latency and energy, and this run's
        total op time and energy as multiples of the fault-free ones."""
        clients = self.baseline.to_dict()["clients"]
        time_s = sum(self.baseline.latencies())
        energy_j = sum(self.baseline.energy_j.values())
        return {
            "clients": {name: {"latency": section["latency"],
                               "energy_j": section["energy_j"]}
                        for name, section in clients.items()},
            "time_s": _round(time_s),
            "energy_j": _round(energy_j),
            "time_degradation": _round(
                sum(self.latencies()) / time_s if time_s > 0 else 1.0),
            "energy_degradation": _round(
                sum(self.energy_j.values()) / energy_j
                if energy_j > 0 else 1.0),
        }

    def _client_section(self, name: str, ops: ClientOps) -> Dict[str, Any]:
        mix: Dict[str, int] = {}
        for choice, count in Counter(ops.choice).items():
            if choice < 0:
                continue
            alternative = self.ops.choices[choice]
            where = f"@{alternative.server}" if alternative.server else ""
            fidelity = ",".join(f"{k}={v}"
                                for k, v in sorted(alternative.fidelity))
            key = (alternative.plan.name + where
                   + (f" [{fidelity}]" if fidelity else ""))
            mix[key] = mix.get(key, 0) + count
        failed = ops.choice.count(-1)
        return {
            "ops": len(ops),
            "completed": len(ops) - failed,
            "failed": failed,
            "failovers": ops.failed_over.count(1),
            "latency": _latency_stats(ops.latencies()),
            "energy_j": _round(self.energy_j.get(name, 0.0)),
            "mix": dict(sorted(mix.items())),
            "errors": sorted(set(ops.errors.values())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _round(value: float, digits: int = 6) -> float:
    """Fixed-precision floats keep report JSON tidy and diff-friendly."""
    return round(float(value), digits)


def _latency_stats(latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        return {"mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0}
    ordered = sorted(latencies)
    return {
        "mean_s": _round(sum(ordered) / len(ordered)),
        "p50_s": _round(_percentile(ordered, 0.50)),
        "p95_s": _round(_percentile(ordered, 0.95)),
    }


def _percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolation percentile over a pre-sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


# -- execution ---------------------------------------------------------------------


def _train(world: CompiledScenario) -> None:
    """Run every client's forced-alternative training regimen."""
    sim = world.sim
    for compiled in world.clients:
        n = compiled.spec.training_ops
        if n <= 0:
            continue
        alternatives = compiled.app.spec.alternatives(
            list(compiled.spec.servers))
        # Training has its own generator so the measured phase's draws
        # do not shift when a profile rescales training_ops.
        rng = (random.Random(derive_seed(world.spec.seed, "training",
                                         compiled.name))
               if compiled.adapter.draws else None)
        for i in range(n):
            force = alternatives[i % len(alternatives)]
            sim.run_process(
                compiled.adapter.operation(compiled.app, rng, i, force=force)
            )
    if world.spec.settle_s > 0:
        sim.advance(world.spec.settle_s)
    world.poll()


#: Per measured-op index: the anchored timeline entries to place when
#: that operation is issued, each with its delay after the op's start.
OpAnchors = Dict[int, List[Tuple[TimelineEventSpec, float]]]


def _drive(world: CompiledScenario, compiled: CompiledClient,
           t0: float, ops: ClientOps, choices: Dict[Alternative, int],
           on_op: Optional[OpHook], anchors: Optional[OpAnchors]):
    """Process: one client's measured phase (arrivals + think times).

    *choices* numbers each alternative chosen so far in the run, in
    first-chosen order: each client's solver builds its own, and builds
    them again when its reachable servers change.
    """
    sim = world.sim
    spec = world.spec
    times = generate_arrivals(
        compiled.spec.arrivals,
        random.Random(derive_seed(spec.seed, "arrivals", compiled.name)),
        spec.duration_s)
    think = compiled.spec.think
    think_rng = (random.Random(derive_seed(spec.seed, "think", compiled.name))
                 if think.kind == "exponential" else None)
    for index, offset in enumerate(times):
        target = t0 + offset
        if sim.now < target:
            yield Timeout(target - sim.now)
        issued_at_s = sim.now - t0
        if anchors is not None:
            _place(world, anchors.get(index, ()))
        try:
            report = yield from compiled.operation(index)
        except (NoFeasibleAlternativeError, RpcError) as exc:
            ops.add(issued_at_s)
            ops.errors[index] = f"{type(exc).__name__}: {exc}"
        else:
            ops.add(issued_at_s, report.elapsed_s,
                    choices.setdefault(report.alternative, len(choices)),
                    report.failed_over)
            if on_op is not None:
                on_op(report)
        pause = think_time(think, think_rng)
        if pause > 0:
            yield Timeout(pause)


def run_scenario(
    spec: ScenarioSpec,
    profile: str = "full",
    seed: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    predictor_store=None,
    save_predictors: bool = False,
    on_op: Optional[OpHook] = None,
) -> ScenarioReport:
    """Run *spec* to completion and return its report.

    ``seed`` overrides the spec's seed; ``profile="smoke"`` shrinks the
    run to CI size first.  A fresh metrics-only :class:`Telemetry` is
    created unless one is passed in (pass a
    :func:`~repro.telemetry.jsonl_trace` one to also stream the spans).

    ``predictor_store`` (a directory path or
    :class:`~repro.predictors.store.PredictorStore`) warm-starts every
    client's demand models from persisted state, scoped per client;
    ``save_predictors=True`` flushes learned state back after the run.
    A store-backed report carries a per-client ``predictor_state``
    digest; store-less reports are byte-identical to earlier builds.

    ``on_op`` is called with the
    :class:`~repro.core.client.OperationReport` of every measured
    operation that completes, as it completes: its measured usage and
    the solver's prediction, which the report does not keep.  It must
    not block or touch the world.

    A spec with anchored timeline events first runs fault-free on a
    fresh world of its own (own metrics-only telemetry, no hook, no
    predictor save).  That pass says where each anchored event lands
    and is the report's ``baseline``.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {', '.join(PROFILES)}")
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    if profile == "smoke":
        spec = smoke_spec(spec)
    if telemetry is None:
        telemetry = Telemetry()
    store: Optional[PredictorStore] = None
    if predictor_store is not None:
        from ..predictors.store import PredictorStore
        store = (predictor_store
                 if isinstance(predictor_store, PredictorStore)
                 else PredictorStore(predictor_store, telemetry=telemetry))
    elif save_predictors:
        raise ValueError("save_predictors=True requires a predictor_store")

    if not any(event.anchor is not None for event in spec.timeline):
        return _run_pass(spec, profile, telemetry, store, save_predictors,
                         on_op, {})
    calibration = Telemetry()
    baseline = _run_pass(
        dataclasses.replace(spec, timeline=()), profile, calibration,
        None if store is None else PredictorStore(store.root,
                                                  telemetry=calibration),
        False, None, {},
    )
    report = _run_pass(spec, profile, telemetry, store, save_predictors,
                       on_op, _anchors(spec, baseline))
    report.baseline = baseline
    return report


def _anchors(spec: ScenarioSpec,
             baseline: ScenarioReport) -> Dict[str, OpAnchors]:
    """Each anchored event with its delay after its operation's start,
    read off the fault-free *baseline* run of *spec*."""
    anchors: Dict[str, OpAnchors] = {}
    for i, event in enumerate(spec.timeline):
        anchor = event.anchor
        if anchor is None:
            continue
        ops = baseline.ops.clients.get(anchor.client)
        if ops is None or anchor.op >= len(ops):
            raise ScenarioError([
                f"timeline[{i}].anchor.op: {anchor.client!r} never "
                f"issues measured operation {anchor.op}"
            ])
        if ops.choice[anchor.op] < 0:
            raise ScenarioError([
                f"timeline[{i}].anchor.op: {anchor.client!r}'s "
                f"operation {anchor.op} fails without faults "
                f"({ops.errors[anchor.op]})"
            ])
        anchors.setdefault(anchor.client, {}).setdefault(
            anchor.op, []).append(
                (event, anchor.fraction * ops.elapsed_s[anchor.op]))
    return anchors


def _place(world: CompiledScenario,
           entries: List[Tuple[TimelineEventSpec, float]]) -> None:
    """Arm anchored *entries* for an operation starting now."""
    for event, delay_s in entries:
        at_s = world.sim.now + delay_s
        recover = event.anchor.recover_after_s
        for fault in event_faults(
                event, at_s, None if recover is None else at_s + recover):
            world.injector.schedule(fault)


def _run_pass(spec: ScenarioSpec, profile: str, telemetry: Telemetry,
              store: Optional[PredictorStore], save_predictors: bool,
              on_op: Optional[OpHook],
              anchors: Dict[str, OpAnchors]) -> ScenarioReport:
    """Compile, train and measure *spec* once; the body of
    :func:`run_scenario`."""
    world = compile_scenario(spec, telemetry=telemetry,
                             predictor_store=store)
    sim = world.sim
    _train(world)

    # Arm recovery machinery only when the environment will misbehave:
    # a fault-free scenario keeps the paper's single-attempt transport.
    if spec.timeline:
        policy = _retry_policy(spec.seed)
        for compiled in world.clients:
            compiled.client.retry_policy = policy

    t0 = sim.now
    world.install_timeline(offset_s=t0)

    columns = {compiled.name: ClientOps() for compiled in world.clients}
    choices: Dict[Alternative, int] = {}
    e0 = {compiled.name: compiled.node.host.energy_consumed_joules()
          for compiled in world.clients}
    processes = [
        sim.spawn(_drive(world, compiled, t0, columns[compiled.name],
                         choices, on_op, anchors.get(compiled.name)),
                  name=f"scenario@{compiled.name}")
        for compiled in world.clients
    ]

    def barrier():
        yield AllOf(processes)

    sim.run_process(barrier())
    # The measured phase ends when its last operation does: read its
    # clock and meters here.  The drain below may run the clock on to
    # the last queued timer (a recovery, or an RPC deadline that its
    # call outlived), idle time no operation spent.
    end_s = sim.now
    energy = {
        compiled.name: compiled.node.host.energy_consumed_joules()
        - e0[compiled.name]
        for compiled in world.clients
    }
    # Drain pending recoveries/timers so the fault journal is complete
    # and the world ends healthy.
    sim.run()

    counters = {name: telemetry.metrics.counter(name).value
                for name in REPORT_COUNTERS}
    predictor_state: Optional[Dict[str, str]] = None
    if store is not None:
        # Flush in client order (deterministic), then fingerprint each
        # client's on-disk scope.  Without --save-predictors the digests
        # describe whatever state the run *loaded* — unchanged on disk.
        if save_predictors:
            for compiled in world.clients:
                compiled.client.flush_predictors()
        predictor_state = {
            compiled.name: store.scoped(compiled.name).state_digest()
            for compiled in world.clients
        }
    return ScenarioReport(
        scenario=spec.name,
        seed=spec.seed,
        profile=profile,
        duration_s=spec.duration_s,
        sim_time_s=end_s,
        ops=OpRecords(columns, list(choices)),
        energy_j=energy,
        counters=counters,
        fault_journal=world.injector.journal(),
        bytes_transferred=world.network.log.bytes,
        transfers=world.network.log.transfers,
        predictor_state=predictor_state,
    )


def render_report(report: ScenarioReport) -> str:
    """Plain-text summary for the ``repro scenario run`` CLI."""
    data = report.to_dict()
    lines = [
        f"scenario {report.scenario!r} (seed {report.seed}, "
        f"profile {report.profile})",
        "=" * 60,
    ]
    for name, section in data["clients"].items():
        latency = section["latency"]
        lines.append(
            f"\nclient {name}: {section['completed']}/{section['ops']} ops "
            f"completed, {section['failovers']} failovers, "
            f"{section['energy_j']:.2f} J"
        )
        lines.append(
            f"  latency: mean {latency['mean_s']:.2f}s "
            f"p50 {latency['p50_s']:.2f}s p95 {latency['p95_s']:.2f}s"
        )
        for choice, count in section["mix"].items():
            lines.append(f"  {count:3d}x {choice}")
        for error in section["errors"]:
            lines.append(f"  error: {error}")
    totals = data["totals"]
    lines.append(
        f"\ntotals: {totals['completed']}/{totals['ops']} ops, "
        f"{totals['bytes_transferred']} bytes over "
        f"{totals['transfers']} transfers, {totals['energy_j']:.2f} J"
    )
    lines.append("counters: " + ", ".join(
        f"{name}={int(value)}" for name, value in data["counters"].items()
    ))
    if "predictor_state" in data:
        lines.append("predictor state: " + ", ".join(
            f"{client}={digest[:12]}"
            for client, digest in data["predictor_state"].items()
        ))
    if data["faults"]:
        lines.append("faults:")
        for entry in data["faults"]:
            lines.append(f"  {entry}")
    if "baseline" in data:
        baseline = data["baseline"]
        lines.append(
            f"fault-free baseline: {baseline['time_s']:.2f}s, "
            f"{baseline['energy_j']:.2f} J; degradation: time "
            f"x{baseline['time_degradation']:.2f}, energy "
            f"x{baseline['energy_degradation']:.2f}"
        )
    status = "completed" if report.completed else "INCOMPLETE"
    lines.append(f"\nall operations {status}")
    return "\n".join(lines)
