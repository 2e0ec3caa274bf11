"""Shared experiment machinery.

The validation methodology of the paper's §4, mechanized:

    "For each scenario, we measured application latency and energy usage
    for each possible combination of fidelity, execution plan, and
    remote server.  We also asked Spectra to choose one of the possible
    alternatives for application execution."

:func:`measure_alternatives` runs every alternative *forced* and records
time/energy; :func:`utility_of` scores measurements with the paper's
utility; :func:`rank_percentile` reproduces the Figure-8 ranking.

Training never depends on the scenario or on the alternative measured,
so the figure experiments train one compiled world per call and run
each measurement on a :func:`clone_world` copy of it — the same
starting state a freshly compiled and trained world would have, at the
cost of one deep copy instead of a whole training run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..core import Alternative, DefaultUtility, OperationSpec
from ..core.utility import AlternativePrediction

WorldT = TypeVar("WorldT", bound=tuple)


def clone_world(world: WorldT, shared: Iterable[Any] = ()) -> WorldT:
    """An independent deep copy of a quiescent ``(compiled world, app)``
    pair (the world a :func:`~repro.scenarios.compile_scenario` call
    built).

    Objects in *shared* (typically a solver handed to every measurement)
    are kept by reference in the copy; everything else reachable from
    *world* is copied, so running the clone cannot disturb the original.
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
    sim = world[0].sim
    if sim.pending or sim.running:
        raise ValueError(
            f"cannot clone a world with {sim.pending} queued callbacks "
            f"(running={sim.running}); clone it between operations"
        )
    if sim.telemetry.tracer.enabled:
        raise ValueError("cannot clone a world whose telemetry has a tracer")
    memo = {id(obj): obj for obj in shared}
    return copy.deepcopy(world, memo)


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
