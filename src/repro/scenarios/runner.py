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

Same spec + same seed ⇒ byte-identical report JSON: the simulator is
deterministic, every random draw comes from a seeded generator derived
from the scenario seed, and the report serializer sorts every key.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.client import NoFeasibleAlternativeError
from ..predictors.store import PredictorStore
from ..rpc import RetryPolicy, RpcError
from ..sim import AllOf, Timeout
from ..telemetry import Telemetry
from .arrivals import derive_seed, generate_arrivals, think_time
from .compiler import CompiledClient, CompiledScenario, compile_scenario
from .spec import ScenarioSpec

#: Run profiles: ``full`` runs the spec as written; ``smoke`` shrinks it
#: to CI size (short duration, few ops, little training).
PROFILES = ("full", "smoke")

#: Telemetry counters surfaced in every report (0 when never touched).
REPORT_COUNTERS = (
    "spectra.failovers",
    "spectra.ops.aborted",
    "spectra.poll.errors",
    "rpc.retries",
    "rpc.failures",
    "faults.injected",
)

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
    clients = tuple(
        dataclasses.replace(
            client,
            training_ops=min(client.training_ops, 4),
            arrivals=dataclasses.replace(
                client.arrivals,
                n_ops=min(client.arrivals.n_ops or 2, 2),
            ),
        )
        for client in spec.clients
    )
    return dataclasses.replace(
        spec,
        duration_s=min(spec.duration_s, 30.0),
        settle_s=min(spec.settle_s, 10.0),
        clients=clients,
        timeline=tuple(e for e in spec.timeline if e.at_s < 30.0),
    )


@dataclass
class OpRecord:
    """One measured operation as the runner saw it."""

    client: str
    index: int
    issued_at_s: float
    elapsed_s: float = 0.0
    plan: str = ""
    server: Optional[str] = None
    fidelity: Dict[str, Any] = field(default_factory=dict)
    failed_over: bool = False
    completed: bool = False
    error: str = ""
    #: solver-time per-resource demand prediction (empty for explored /
    #: forced ops) and the measured usage — consumed by the accuracy
    #: convergence experiment; deliberately NOT part of the JSON report.
    predicted: Dict[str, float] = field(default_factory=dict)
    usage: Dict[str, float] = field(default_factory=dict)
    predicted_time_s: Optional[float] = None


@dataclass
class ScenarioReport:
    """Everything one scenario run produced, JSON-stable."""

    scenario: str
    seed: int
    profile: str
    duration_s: float
    sim_time_s: float
    ops: List[OpRecord]
    energy_j: Dict[str, float]
    counters: Dict[str, float]
    fault_journal: List[str]
    bytes_transferred: int
    transfers: int
    #: per-client digest of persisted predictor state; present only when
    #: the run used a predictor store (reports without one stay
    #: byte-identical to pre-store builds)
    predictor_state: Optional[Dict[str, str]] = None

    # -- derived views -------------------------------------------------------------

    @property
    def completed(self) -> bool:
        return all(op.completed for op in self.ops)

    def latencies(self, client: Optional[str] = None) -> List[float]:
        return [op.elapsed_s for op in self.ops
                if op.completed and (client is None or op.client == client)]

    def to_dict(self) -> Dict[str, Any]:
        clients = sorted({op.client for op in self.ops})
        per_client = {name: self._client_section(name) for name in clients}
        data = {
            "scenario": self.scenario,
            "seed": self.seed,
            "profile": self.profile,
            "duration_s": _round(self.duration_s),
            "sim_time_s": _round(self.sim_time_s),
            "clients": per_client,
            "totals": {
                "ops": len(self.ops),
                "completed": sum(1 for op in self.ops if op.completed),
                "failed": sum(1 for op in self.ops if not op.completed),
                "failovers": sum(1 for op in self.ops if op.failed_over),
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
        return data

    def _client_section(self, name: str) -> Dict[str, Any]:
        ops = [op for op in self.ops if op.client == name]
        mix: Dict[str, int] = {}
        for op in ops:
            if not op.completed:
                continue
            where = f"@{op.server}" if op.server else ""
            fidelity = ",".join(f"{k}={v}"
                                for k, v in sorted(op.fidelity.items()))
            key = op.plan + where + (f" [{fidelity}]" if fidelity else "")
            mix[key] = mix.get(key, 0) + 1
        return {
            "ops": len(ops),
            "completed": sum(1 for op in ops if op.completed),
            "failed": sum(1 for op in ops if not op.completed),
            "failovers": sum(1 for op in ops if op.failed_over),
            "latency": _latency_stats(self.latencies(name)),
            "energy_j": _round(self.energy_j.get(name, 0.0)),
            "mix": dict(sorted(mix.items())),
            "errors": sorted({op.error for op in ops if op.error}),
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
        rng = random.Random(derive_seed(world.spec.seed, "training",
                                        compiled.name))
        for i in range(n):
            force = alternatives[i % len(alternatives)]
            sim.run_process(
                compiled.adapter.operation(compiled.app, rng, i, force=force)
            )
    if world.spec.settle_s > 0:
        sim.advance(world.spec.settle_s)
    world.poll()


def _drive(world: CompiledScenario, compiled: CompiledClient,
           t0: float, records: List[OpRecord]):
    """Process: one client's measured phase (arrivals + think times)."""
    sim = world.sim
    spec = world.spec
    arrival_rng = random.Random(derive_seed(spec.seed, "arrivals",
                                            compiled.name))
    think_rng = random.Random(derive_seed(spec.seed, "think",
                                          compiled.name))
    times = generate_arrivals(compiled.spec.arrivals, arrival_rng,
                              spec.duration_s)
    for index, offset in enumerate(times):
        target = t0 + offset
        if sim.now < target:
            yield Timeout(target - sim.now)
        record = OpRecord(client=compiled.name, index=index,
                          issued_at_s=sim.now - t0)
        records.append(record)
        try:
            report = yield from compiled.operation(index)
        except (NoFeasibleAlternativeError, RpcError) as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        else:
            record.elapsed_s = report.elapsed_s
            record.plan = report.alternative.plan.name
            record.server = report.alternative.server
            record.fidelity = dict(report.alternative.fidelity_dict())
            record.failed_over = report.failed_over
            record.completed = True
            record.usage = dict(report.usage)
            if report.prediction is not None:
                record.predicted = dict(report.prediction.demand)
                record.predicted_time_s = report.prediction.total_time_s
        pause = think_time(compiled.spec.think, think_rng)
        if pause > 0:
            yield Timeout(pause)


def run_scenario(
    spec: ScenarioSpec,
    profile: str = "full",
    seed: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    space_cache: bool = True,
    predictor_store=None,
    save_predictors: bool = False,
) -> ScenarioReport:
    """Run *spec* to completion and return its report.

    ``seed`` overrides the spec's seed; ``profile="smoke"`` shrinks the
    run to CI size first.  A fresh metrics-only :class:`Telemetry` is
    created unless one is passed in (pass a
    :func:`~repro.telemetry.jsonl_trace` one to also stream the spans).
    ``space_cache=False`` disables every client's search-space cache —
    the reports must come out byte-identical either way (the
    equivalence tests run both); it exists for exactly that check and
    for bisecting a suspected cache bug.

    ``predictor_store`` (a directory path or
    :class:`~repro.predictors.store.PredictorStore`) warm-starts every
    client's demand models from persisted state, scoped per client;
    ``save_predictors=True`` flushes learned state back after the run.
    A store-backed report carries a per-client ``predictor_state``
    digest; store-less reports are byte-identical to earlier builds.
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
        store = (predictor_store
                 if isinstance(predictor_store, PredictorStore)
                 else PredictorStore(predictor_store, telemetry=telemetry))
    elif save_predictors:
        raise ValueError("save_predictors=True requires a predictor_store")

    world = compile_scenario(spec, telemetry=telemetry,
                             predictor_store=store)
    sim = world.sim
    if not space_cache:
        for compiled in world.clients:
            compiled.client.space_cache_enabled = False

    _train(world)

    # Arm recovery machinery only when the environment will misbehave:
    # a fault-free scenario keeps the paper's single-attempt transport.
    if len(world.schedule):
        policy = _retry_policy(spec.seed)
        for compiled in world.clients:
            compiled.client.retry_policy = policy

    t0 = sim.now
    world.install_timeline(offset_s=t0)

    records: List[OpRecord] = []
    e0 = {compiled.name: compiled.node.host.energy_consumed_joules()
          for compiled in world.clients}
    processes = [
        sim.spawn(_drive(world, compiled, t0, records),
                  name=f"scenario@{compiled.name}")
        for compiled in world.clients
    ]

    def barrier():
        yield AllOf(processes)

    sim.run_process(barrier())
    # Drain pending recoveries/timers so the fault journal is complete
    # and the world ends healthy.
    sim.run()

    energy = {
        compiled.name: compiled.node.host.energy_consumed_joules()
        - e0[compiled.name]
        for compiled in world.clients
    }
    counters = {name: telemetry.metrics.counter(name).value
                for name in REPORT_COUNTERS}
    records.sort(key=lambda r: (r.client, r.index))
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
        sim_time_s=sim.now,
        ops=records,
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
    status = "completed" if report.completed else "INCOMPLETE"
    lines.append(f"\nall operations {status}")
    return "\n".join(lines)
