"""Prediction-accuracy convergence across persisted runs (§3.3/§3.4).

The paper's claim for the self-tuning loop is that "the more an
operation is executed, the more accurately its resource usage is
predicted."  With the predictor store, "more executed" now spans
process lifetimes: run a scenario cold, persist its usage logs, run it
again warm-started, persist again, and so on.  This experiment measures
that loop directly — each round replays the same scenario (same spec,
same seed) through one on-disk store and compares every operation's
solver-time demand prediction against its measured usage.

Per round it reports, per resource and overall, the **median relative
prediction error** ``|predicted - actual| / actual``, together with how
many persisted samples the round warm-started from.  Round 0 is the
cold start (only in-run training history); each later round begins with
everything earlier rounds persisted, so the error trajectory should be
monotone non-increasing — the check :func:`is_converging` applies and
the repro gate asserts.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.client import OperationReport
from ..predictors.store import PredictorStore
from ..scenarios import canned_spec
from ..scenarios.runner import run_scenario
from ..scenarios.spec import ScenarioSpec

#: actual usage below this is treated as zero (no meaningful ratio)
_TINY = 1e-9


@dataclass
class RoundAccuracy:
    """One run's prediction-vs-actual accounting."""

    round: int
    #: persisted samples the round's registrations warm-started from
    prior_samples: int
    #: completed operations that carried a solver prediction
    predicted_ops: int
    #: resource -> median relative error over this round's operations
    per_resource: Dict[str, float] = field(default_factory=dict)
    #: median over every (operation, resource) relative error
    overall: float = 0.0


@dataclass
class AccuracyResult:
    """The full convergence trajectory."""

    scenario: str
    seed: int
    profile: str
    rounds: List[RoundAccuracy] = field(default_factory=list)

    @property
    def overall_trajectory(self) -> List[float]:
        """Overall error per round that produced predictions.

        A cold round whose measured operations all *explored* (no
        demand history yet, so the solver never predicted) contributes
        nothing to measure — the convergence claim is about successive
        warm-started runs.
        """
        return [entry.overall for entry in self.rounds
                if entry.predicted_ops > 0]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _relative_errors(
        op: OperationReport) -> Optional[List[Tuple[str, float]]]:
    """Every (resource, relative error) pair of one completed operation,
    or ``None`` when the solver predicted nothing for it (it explored)."""
    if op.prediction is None or not op.prediction.demand:
        return None
    errors: List[Tuple[str, float]] = []
    for resource, predicted in sorted(op.prediction.demand.items()):
        actual = op.usage.get(resource, 0.0)
        if actual <= _TINY:
            continue
        errors.append((resource, abs(predicted - actual) / actual))
    return errors


def _stored_samples(store: PredictorStore) -> int:
    """Total persisted samples across every client scope of *store*."""
    total = 0
    for path in sorted(store.root.glob("*")):
        if not path.is_dir():
            continue
        scope = PredictorStore(path, telemetry=store.telemetry)
        for operation in scope.operations():
            stored = scope.load(operation)
            if stored is not None:
                total += stored.n_samples
    return total


def run_accuracy_experiment(
    scenario: str = "walk-in-office",
    rounds: int = 4,
    profile: str = "smoke",
    seed: Optional[int] = None,
    store_dir: Optional[str] = None,
    spec: Optional[ScenarioSpec] = None,
) -> AccuracyResult:
    """Run *rounds* persisted repetitions of one scenario and score each.

    Every round executes the identical (spec, seed) through the same
    predictor store with ``save_predictors=True``, so round *k* warm
    starts from the union of rounds ``0..k-1``.  ``store_dir=None``
    uses a throwaway directory — the result depends only on document
    *contents* (digests, sample counts), never on the path.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1: {rounds}")
    if spec is None:
        spec = canned_spec(scenario)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)

    result = AccuracyResult(scenario=spec.name, seed=spec.seed,
                            profile=profile)

    def _run_rounds(root: str) -> None:
        store = PredictorStore(root)
        for index in range(rounds):
            prior = _stored_samples(store)
            # Each operation is scored as it completes: the report keeps
            # neither its measured usage nor its prediction.
            scored: List[List[Tuple[str, float]]] = []

            def score(op: OperationReport) -> None:
                errors = _relative_errors(op)
                if errors is not None:
                    scored.append(errors)

            run_scenario(spec, profile=profile, predictor_store=store,
                         save_predictors=True, on_op=score)
            errors = [pair for op_errors in scored for pair in op_errors]
            by_resource: Dict[str, List[float]] = {}
            for resource, error in errors:
                by_resource.setdefault(resource, []).append(error)
            result.rounds.append(RoundAccuracy(
                round=index,
                prior_samples=prior,
                predicted_ops=len(scored),
                per_resource={resource: _median(values)
                              for resource, values
                              in sorted(by_resource.items())},
                overall=_median([error for _res, error in errors]),
            ))

    if store_dir is not None:
        _run_rounds(store_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="spectra-accuracy-") as tmp:
            _run_rounds(tmp)
    return result


def is_converging(result: AccuracyResult, tolerance: float = 1e-9) -> bool:
    """True when the overall median error never increases round-over-round
    (within *tolerance* — float noise must not fail the gate)."""
    trajectory = result.overall_trajectory
    return all(later <= earlier + tolerance
               for earlier, later in zip(trajectory, trajectory[1:]))


def render_accuracy_table(result: AccuracyResult) -> str:
    """Plain-text convergence table for the ``repro accuracy`` CLI."""
    resources = sorted({resource
                        for entry in result.rounds
                        for resource in entry.per_resource})
    lines = [
        f"Prediction accuracy vs persisted history "
        f"({result.scenario!r}, seed {result.seed}, "
        f"profile {result.profile})",
        "=" * 72,
        "median relative prediction error |predicted-actual|/actual",
        "",
        "round  prior samples  predicted ops  overall  " +
        "  ".join(f"{resource:>12s}" for resource in resources),
    ]
    for entry in result.rounds:
        cells = "  ".join(
            f"{entry.per_resource[resource]:12.4f}"
            if resource in entry.per_resource else f"{'-':>12s}"
            for resource in resources
        )
        lines.append(
            f"{entry.round:5d}  {entry.prior_samples:13d}  "
            f"{entry.predicted_ops:13d}  {entry.overall:7.4f}  {cells}"
        )
    verdict = ("monotone non-increasing — the self-tuning loop converges"
               if is_converging(result)
               else "NOT monotone — error increased between rounds")
    lines.append("")
    lines.append(f"trajectory: {verdict}")
    return "\n".join(lines)
