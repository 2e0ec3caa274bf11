"""The chaos experiment: workloads under deterministic fault injection.

Not a figure from the paper — a robustness experiment the paper's
environment model demands: "the supply of resources ... may change
dramatically during operation" (§1).  Each workload runs twice on fresh
compiled worlds:

1. a **baseline** (fault-free) pass, which both provides the comparison
   point and calibrates *when* "mid-operation" is for each op, and
2. a **chaos** pass, where each :class:`~repro.faults.MidOpFault` of the
   profile fires at ``op_start + fraction × baseline_elapsed`` — inside
   the operation, on the simulation clock, reproducibly.

The chaos pass enables the RPC retry policy and relies on the client's
mid-operation failover: a well-behaved run completes every operation
without an exception reaching application code, and the report shows
what surviving cost — time and energy degradation relative to the
baseline, plus the retry/failover/abort counters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..apps import SpeechWorkload
from ..faults import ChaosProfile, FaultInjector, PROFILES
from ..faults.schedule import FaultEvent, recovery_action
from ..rpc import RetryPolicy
from ..telemetry import Telemetry
from . import latex as latex_experiment
from . import speech as speech_experiment

#: Chaos-pass retry policy: generous per-attempt timeout (operations
#: here legitimately take tens of simulated seconds), quick backoff.
def default_retry_policy(seed: int) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=3, timeout_s=600.0,
        backoff_base_s=0.5, backoff_multiplier=2.0, backoff_max_s=5.0,
        jitter=0.1, seed=seed,
    )


#: Counters surfaced in the report (0.0 when never incremented).
REPORT_COUNTERS = (
    "spectra.failovers",
    "spectra.ops.aborted",
    "spectra.poll.errors",
    "rpc.retries",
    "rpc.failures",
    "faults.injected",
)

#: Document rotation for the latex workload's chaos ops.
LATEX_DOCUMENTS = ("small", "large")


@dataclass(frozen=True)
class OpOutcome:
    """One operation's outcome in one pass."""

    index: int
    plan: str
    server: Optional[str]
    elapsed_s: float
    energy_j: float
    failed_over: bool = False

    def describe(self) -> str:
        where = f"@{self.server}" if self.server else ""
        flag = " [failed over]" if self.failed_over else ""
        return (f"op{self.index}: {self.plan}{where} "
                f"{self.elapsed_s:.2f}s {self.energy_j:.2f}J{flag}")


@dataclass
class WorkloadChaosResult:
    """Baseline vs chaos outcomes for one workload."""

    workload: str
    baseline: List[OpOutcome]
    chaos: List[OpOutcome]
    fault_journal: List[str]
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def baseline_time_s(self) -> float:
        return sum(o.elapsed_s for o in self.baseline)

    @property
    def chaos_time_s(self) -> float:
        return sum(o.elapsed_s for o in self.chaos)

    @property
    def baseline_energy_j(self) -> float:
        return sum(o.energy_j for o in self.baseline)

    @property
    def chaos_energy_j(self) -> float:
        return sum(o.energy_j for o in self.chaos)

    @property
    def time_degradation(self) -> float:
        """chaos / baseline total time (1.0 = no slowdown)."""
        if self.baseline_time_s <= 0:
            return 1.0
        return self.chaos_time_s / self.baseline_time_s

    @property
    def energy_degradation(self) -> float:
        if self.baseline_energy_j <= 0:
            return 1.0
        return self.chaos_energy_j / self.baseline_energy_j

    @property
    def failovers(self) -> float:
        return self.counters.get("spectra.failovers", 0.0)

    @property
    def completed(self) -> bool:
        """Every chaos-pass operation produced a report."""
        return len(self.chaos) == len(self.baseline)


@dataclass
class ChaosReport:
    """Everything one ``repro chaos`` run produced."""

    profile: str
    seed: int
    results: Dict[str, WorkloadChaosResult]

    @property
    def completed(self) -> bool:
        return all(r.completed for r in self.results.values())


# -- workload assembly -----------------------------------------------------------


class _Harness:
    """A fresh, trained world plus per-op drivers for one workload."""

    def __init__(self, workload: str, telemetry: Optional[Telemetry]):
        self.workload = workload
        if workload == "speech":
            self.world, self._app = speech_experiment._build(
                "baseline", telemetry=telemetry
            )
            self._lengths = SpeechWorkload().probes(32)
        elif workload == "latex":
            self.world, self._app = latex_experiment._build(
                "baseline", telemetry=telemetry
            )
        else:
            raise ValueError(f"unknown chaos workload {workload!r}")
        self.client = self.world.clients[0].client

    def op(self, index: int):
        """The index-th operation as a fresh process generator."""
        if self.workload == "speech":
            return self._app.recognize(self._lengths[index])
        document = LATEX_DOCUMENTS[index % len(LATEX_DOCUMENTS)]
        return self._app.format(document)

    def energy_joules(self) -> float:
        return self.client.host.energy_consumed_joules()


def _run_pass(
    profile: ChaosProfile,
    workload: str,
    baseline_elapsed: Optional[List[float]],
    telemetry: Optional[Telemetry],
) -> "tuple[List[OpOutcome], FaultInjector]":
    """One pass over a workload; injects faults iff calibrated."""
    harness = _Harness(workload, telemetry)
    world = harness.world
    injector = world.injector
    harness.client.retry_policy = default_retry_policy(profile.seed)

    outcomes: List[OpOutcome] = []
    for index in range(profile.ops_per_workload):
        if baseline_elapsed is not None:
            for fault in profile.faults_for(workload, index):
                at_s = (world.sim.now
                        + fault.fraction * baseline_elapsed[index])
                injector.schedule(FaultEvent(
                    at_s, fault.action, fault.target, fault.value,
                ))
                undo = recovery_action(fault.action)
                if fault.recover_after_s is not None and undo is not None:
                    injector.schedule(FaultEvent(
                        at_s + fault.recover_after_s, undo, fault.target,
                    ))
        e0 = harness.energy_joules()
        report = world.sim.run_process(harness.op(index))
        outcomes.append(OpOutcome(
            index=index,
            plan=report.alternative.plan.name,
            server=report.alternative.server,
            elapsed_s=report.elapsed_s,
            energy_j=harness.energy_joules() - e0,
            failed_over=report.failed_over,
        ))
    # Drain pending recoveries so the journal covers the whole schedule
    # and the world ends healthy (run() without a deadline empties the
    # queue; all remaining events are timers and recoveries).
    world.sim.run()
    return outcomes, injector


def run_chaos_workload(profile: ChaosProfile,
                       workload: str) -> WorkloadChaosResult:
    """Baseline + chaos passes for one workload of *profile*."""
    baseline, _ = _run_pass(profile, workload, None, None)
    telemetry = Telemetry()
    chaos, injector = _run_pass(
        profile, workload, [o.elapsed_s for o in baseline], telemetry,
    )
    counters = {
        name: telemetry.metrics.counter(name).value
        for name in REPORT_COUNTERS
    }
    return WorkloadChaosResult(
        workload=workload,
        baseline=baseline,
        chaos=chaos,
        fault_journal=injector.journal(),
        counters=counters,
    )


def run_chaos_experiment(
    profile: Union[str, ChaosProfile] = "smoke",
    seed: Optional[int] = None,
) -> ChaosReport:
    """Run every workload of *profile*; returns the full report."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown chaos profile {profile!r}; "
                f"choose from {sorted(PROFILES)}"
            ) from None
    if seed is not None:
        profile = dataclasses.replace(profile, seed=seed)
    results = {
        workload: run_chaos_workload(profile, workload)
        for workload in profile.workloads
    }
    return ChaosReport(profile=profile.name, seed=profile.seed,
                       results=results)


def render_chaos_report(report: ChaosReport) -> str:
    """Plain-text rendering for the ``repro chaos`` CLI."""
    lines = [
        f"chaos profile {report.profile!r} (seed {report.seed})",
        "=" * 60,
    ]
    for workload, result in report.results.items():
        lines.append(f"\nworkload: {workload}")
        lines.append("  baseline (fault-free):")
        for outcome in result.baseline:
            lines.append(f"    {outcome.describe()}")
        lines.append("  chaos:")
        for outcome in result.chaos:
            lines.append(f"    {outcome.describe()}")
        lines.append("  faults:")
        for entry in result.fault_journal:
            lines.append(f"    {entry}")
        lines.append(
            f"  degradation: time x{result.time_degradation:.2f} "
            f"({result.baseline_time_s:.2f}s -> {result.chaos_time_s:.2f}s), "
            f"energy x{result.energy_degradation:.2f} "
            f"({result.baseline_energy_j:.2f}J -> "
            f"{result.chaos_energy_j:.2f}J)"
        )
        counters = ", ".join(
            f"{name}={int(value)}"
            for name, value in sorted(result.counters.items())
        )
        lines.append(f"  counters: {counters}")
    status = "completed" if report.completed else "INCOMPLETE"
    lines.append(f"\nall operations {status} under injected faults")
    return "\n".join(lines)
