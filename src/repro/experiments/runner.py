"""Shared experiment machinery.

The validation methodology of the paper's §4, mechanized:

    "For each scenario, we measured application latency and energy usage
    for each possible combination of fidelity, execution plan, and
    remote server.  We also asked Spectra to choose one of the possible
    alternatives for application execution."

Every experiment module runs that method through the helpers here:

* :func:`train_world` compiles a world and trains each client on a
  fixed workload ("we first recognized 15 phrases…");
* :func:`measure_forced` and :func:`measure_spectra` run one operation,
  forced or with Spectra choosing, and record its time and energy;
* :func:`measure_on_clones` measures every alternative, then Spectra's
  pick, each on its own :func:`clone_world` copy of a trained world;
* :func:`measure_cells` measures every (scenario, input) cell of a
  figure from one trained world, on forked workers, one per available
  CPU (:mod:`repro._fanout`).

Training never depends on the scenario or on the alternative measured,
so a clone starts from the state a freshly trained world would have, at
the cost of one deep copy instead of a whole training run.
:func:`utility_of`, :func:`rank_percentile` and
:func:`relative_utility` score the measurements (Figures 8 and 9).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple, TypeVar)

from .._fanout import fan_out
from ..core import (Alternative, DefaultUtility, NoFeasibleAlternativeError,
                    OperationSpec)
from ..core.utility import AlternativePrediction
from ..rpc import RpcError
from ..scenarios import CompiledScenario, ScenarioSpec, compile_scenario

WorldT = TypeVar("WorldT", bound=tuple)
ResultT = TypeVar("ResultT")

#: ``run(app, item, force)`` is the process running one workload item on
#: *app*, forced to *force* (``None``: Spectra chooses); an app's unbound
#: operation method such as ``SpeechApplication.recognize`` is one.
#: ``op(force)`` is the process of the one operation being measured.
Run = Callable[[Any, Any, Optional[Alternative]], Generator]
Op = Callable[[Optional[Alternative]], Generator]

#: Simulated seconds between training and measurement, for transient
#: load estimates to decay (the paper's phases were minutes apart).
SETTLE_S = 30.0


def train_world(spec: ScenarioSpec, workload: Sequence[Any], run: Run,
                solver=None, telemetry=None) -> CompiledScenario:
    """Compile *spec* and train every client on *workload*, one client
    after the other.

    Item *i* runs forced to the client's alternative *i* modulo their
    number (over the servers its spec names), so every (plan ×
    fidelity) bin gathers samples.  The world then settles for
    :data:`SETTLE_S` and polls its servers.
    """
    world = compile_scenario(spec, telemetry=telemetry, solver=solver)
    for compiled in world.clients:
        alternatives = compiled.app.spec.alternatives(
            list(compiled.spec.servers))
        for i, item in enumerate(workload):
            world.sim.run_process(
                run(compiled.app, item, alternatives[i % len(alternatives)])
            )
    world.sim.advance(SETTLE_S)
    world.poll()
    return world


def clone_world(world: WorldT) -> WorldT:
    """An independent deep copy of a quiescent ``(compiled world, app)``
    pair (the world a :func:`~repro.scenarios.compile_scenario` call
    built).

    Every mutable object reachable from *world* is copied, so running
    the clone cannot disturb the original and no cell depends on
    another.
    Frozen records (logged transfers, usage samples, file accesses,
    network estimates) never change, so the copy shares them: their
    ``__deepcopy__`` hooks return them as they are, and the logs that
    hold them copy their lists one level deep (:mod:`repro.copying`).

    Raises :class:`ValueError` in the two states where a deep copy could
    still reach the original: callbacks queued on (or a drain running
    in) the world's simulator — queued lambdas are copied by
    reference — and an enabled tracer, whose clock is a closure over the
    original simulator.  Metrics-only telemetry clones: the copy gets
    its own registry.
    """
    _check_cloneable(world)
    return copy.deepcopy(world)


def _check_cloneable(world: tuple) -> None:
    """:func:`clone_world`'s guard, on its own so that
    :func:`measure_cells` can run it before forking."""
    sim = world[0].sim
    if sim.pending or sim.running:
        raise ValueError(
            f"cannot clone a world with {sim.pending} queued callbacks "
            f"(running={sim.running}); clone it between operations"
        )
    if sim.telemetry.tracer.enabled:
        raise ValueError("cannot clone a world whose telemetry has a tracer")


@dataclass
class AltMeasurement:
    """One alternative's measured outcome in one scenario."""

    alternative: Alternative
    time_s: float
    energy_j: float
    feasible: bool = True

    @property
    def label(self) -> str:
        return self.alternative.describe()


@dataclass
class SpectraMeasurement:
    """The outcome when Spectra itself chooses (overhead included)."""

    choice: Alternative
    time_s: float
    energy_j: float
    prediction: Optional[AlternativePrediction] = None

    @property
    def label(self) -> str:
        return self.choice.describe()


def measure_forced(world: CompiledScenario, host: str, op: Op,
                   alternative: Alternative) -> AltMeasurement:
    """Run ``op(alternative)`` on *world*; time and *host*'s energy.

    An operation that fails as a scenario run's failed operations do (no
    feasible alternative, an RPC failure) marks the alternative
    infeasible; any other exception propagates.
    """
    meter = world.nodes[host].host
    e0 = meter.energy_consumed_joules()
    try:
        report = world.sim.run_process(op(alternative))
    except (NoFeasibleAlternativeError, RpcError):
        return AltMeasurement(alternative, float("inf"), float("inf"),
                              feasible=False)
    return AltMeasurement(alternative, report.elapsed_s,
                          meter.energy_consumed_joules() - e0)


def measure_spectra(world: CompiledScenario, host: str,
                    op: Op) -> SpectraMeasurement:
    """Run ``op(None)`` on *world*, Spectra choosing; its pick, time
    and *host*'s energy."""
    meter = world.nodes[host].host
    e0 = meter.energy_consumed_joules()
    report = world.sim.run_process(op(None))
    return SpectraMeasurement(
        choice=report.alternative,
        time_s=report.elapsed_s,
        energy_j=meter.energy_consumed_joules() - e0,
        prediction=report.prediction,
    )


def measure_on_clones(trained: Tuple[CompiledScenario, Any],
                      apply: Callable[[CompiledScenario, Any], None],
                      host: str, run: Run, item: Any
                      ) -> Tuple[List[AltMeasurement], SpectraMeasurement]:
    """Every alternative of the trained ``(world, app)`` pair measured
    forced on *item*, then Spectra's own pick, each on a fresh clone
    with ``apply(world, app)`` setting up the scenario.

    A clone per measurement means no run can perturb the next one's
    cache, model or solver state.  The alternatives span the servers of
    the world's first client (the figure worlds have one).
    """
    def scenario_clone():
        world, app = clone_world(trained)
        apply(world, app)
        return world, lambda force: run(app, item, force)

    servers = list(trained[0].clients[0].spec.servers)
    measurements = []
    for alternative in trained[1].spec.alternatives(servers):
        world, op = scenario_clone()
        measurements.append(measure_forced(world, host, op, alternative))
    world, op = scenario_clone()
    return measurements, measure_spectra(world, host, op)


def measure_cells(trained: WorldT, cells: Sequence[tuple],
                  measure: Callable[..., ResultT]) -> Dict[tuple, ResultT]:
    """``{cell: measure(trained, *cell)}`` for every cell, in cell order.

    Each cell is a pure function of the trained world and the cell:
    *measure* takes its own :func:`clone_world` copy, so no cell sees
    another's state, and the cells run through :func:`~repro._fanout.fan_out`
    on forked workers, one per available CPU.  A forked worker inherits
    the quiescent world, so neither it nor *measure* is pickled (the
    Latex and Pangloss worlds do not pickle: their desirability
    functions are closures) and no worker retrains.

    A world :func:`clone_world` would refuse is refused with
    :class:`ValueError` before any worker starts; an exception raised in
    a cell reaches the caller.
    """
    _check_cloneable(trained)
    results = fan_out(lambda cell: measure(trained, *cell), cells)
    return dict(zip(cells, results))


def utility_of(spec: OperationSpec, c: float, time_s: float,
               energy_j: float, alternative: Alternative) -> float:
    """Score a *measured* outcome with the paper's default utility."""
    prediction = AlternativePrediction(
        alternative=alternative,
        total_time_s=time_s,
        energy_joules=energy_j,
    )
    return DefaultUtility(spec, c)(prediction)


def score_measurement(spec: OperationSpec, c: float,
                      m: AltMeasurement) -> float:
    """Utility a measured alternative achieved (infeasible → -inf)."""
    if not m.feasible:
        return float("-inf")
    return utility_of(spec, c, m.time_s, m.energy_j, m.alternative)


def rank_percentile(spec: OperationSpec, c: float,
                    measurements: Sequence[AltMeasurement],
                    choice: Alternative) -> float:
    """Percentile of *choice* among all measured alternatives (Fig. 8).

    99 means Spectra picked the best alternative; 50 means the median.
    Computed as the fraction of alternatives the choice ties or beats,
    mapped onto [0, 99].
    """
    scored = [(m, score_measurement(spec, c, m)) for m in measurements]
    chosen_scores = [s for m, s in scored if m.alternative == choice]
    if not chosen_scores:
        raise ValueError(f"choice {choice.describe()} was never measured")
    chosen = chosen_scores[0]
    beaten_or_tied = sum(1 for _m, s in scored if s <= chosen + 1e-12)
    return 99.0 * beaten_or_tied / len(scored)


def best_measurement(spec: OperationSpec, c: float,
                     measurements: Sequence[AltMeasurement]
                     ) -> Tuple[AltMeasurement, float]:
    """The oracle's pick: highest achieved utility, no overhead."""
    best = None
    best_score = float("-inf")
    for m in measurements:
        score = score_measurement(spec, c, m)
        if score > best_score:
            best, best_score = m, score
    if best is None:
        raise ValueError("no feasible measurement")
    return best, best_score


def relative_utility(spec: OperationSpec, c: float,
                     measurements: Sequence[AltMeasurement],
                     spectra: SpectraMeasurement) -> float:
    """Figure 9's ratio: Spectra's achieved utility (with overhead) over
    the zero-overhead oracle's."""
    _best, oracle = best_measurement(spec, c, measurements)
    achieved = utility_of(spec, c, spectra.time_s, spectra.energy_j,
                          spectra.choice)
    if oracle <= 0:
        return 1.0 if achieved >= oracle else 0.0
    return achieved / oracle


@dataclass
class ScenarioResult:
    """Everything one (scenario, input) cell of a figure needs."""

    scenario: str
    measurements: List[AltMeasurement]
    spectra: SpectraMeasurement
    energy_importance: float = 0.0
    #: free-form extras (document name, sentence length, ...)
    meta: Dict[str, Any] = field(default_factory=dict)

    def best_label(self, spec: OperationSpec) -> str:
        best, _ = best_measurement(spec, self.energy_importance,
                                   self.measurements)
        return best.label

    def percentile(self, spec: OperationSpec) -> float:
        return rank_percentile(spec, self.energy_importance,
                               self.measurements, self.spectra.choice)

    def relative_utility(self, spec: OperationSpec) -> float:
        return relative_utility(spec, self.energy_importance,
                                self.measurements, self.spectra)
