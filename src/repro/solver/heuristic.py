"""The heuristic solver (paper §3.6, after Narayanan et al.).

"Spectra ... uses a heuristic solver to search the space of possible
servers, execution plans, and fidelities.  The solver selects the
alternative that maximizes an input utility function.  Because it uses
heuristic techniques, it is not guaranteed to select the optimal
alternative — however ... it usually selects a very good option."

The algorithm is multi-restart coordinate ascent: from a starting state,
repeatedly move to the best single-coordinate change that improves
utility, until no neighbor improves (a local maximum of the search
graph).  Restarts are spread deterministically across the space with a
seeded PRNG.  The per-solve seed is derived by CRC32-mixing a solve
counter into the base seed: successive operations get *decorrelated*
restart points (solve N and solve N+1 no longer start from identical
states), while a fresh solver replays the same seed sequence, so whole
runs stay reproducible.

Utility evaluations are cached per solve; the evaluation *count* is
reported because the Spectra client charges decision CPU time per
evaluation (the cost visible in the paper's Figure 10, where choosing an
alternative grows from 0.4 ms with no servers to 43.4 ms with five).
The full ``(prediction, utility)`` list is a diagnostic and is only
materialized when the solver is built with ``collect_evaluated=True``.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Tuple

from ..telemetry import Telemetry, ensure_telemetry
from ..telemetry.names import (
    SOLVER_EVALUATIONS,
    SOLVER_PRUNED,
    SOLVER_SOLVES,
    SOLVER_VISITS,
    SPAN_SOLVER_SOLVE,
)
from .space import NO_UTILITY, PredictFn, SearchSpace, SolverResult, UtilityFn


class HeuristicSolver:
    """Multi-restart best-improvement coordinate ascent."""

    name = "heuristic"

    def __init__(self, restarts: int = 5, seed: int = 42,
                 max_steps: int = 64,
                 collect_evaluated: bool = False,
                 telemetry: Optional[Telemetry] = None):
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1: {restarts}")
        self.restarts = restarts
        self.seed = seed
        self.max_steps = max_steps
        #: populate SolverResult.evaluated (explain/forensics); costs a
        #: list append per distinct alternative evaluated.
        self.collect_evaluated = collect_evaluated
        self.telemetry = ensure_telemetry(telemetry)
        #: solves performed so far; mixed into each solve's restart seed.
        self._solve_index = 0

    def _solve_seed(self) -> int:
        """CRC32-derived per-solve seed: deterministic run to run, but
        different across successive solves, so restart starting points
        are not perfectly correlated operation after operation."""
        index = self._solve_index
        self._solve_index = index + 1
        return zlib.crc32(index.to_bytes(8, "little"),
                          self.seed & 0xFFFFFFFF)

    def solve(self, space: SearchSpace, predict: PredictFn,
              utility: UtilityFn) -> SolverResult:
        size = space.size()
        if size == 0:
            return SolverResult(best=None, utility=NO_UTILITY, evaluations=0)

        with self.telemetry.tracer.start_span(
            SPAN_SOLVER_SOLVE, space_size=size, restarts=self.restarts,
        ) as span:
            cache: Dict[Tuple[int, ...], Tuple] = {}
            collect = self.collect_evaluated
            evaluated: List[Tuple] = []

            def evaluate(state: Tuple[int, ...]):
                """Score a state not yet in ``cache`` and remember it."""
                prediction = predict(space.decode(state))
                value = utility(prediction)
                # Rank key: utility first, then lower predicted time.
                # The time tie-break lets the ascent walk off plateaus
                # where every alternative scores 0 (e.g. everything is
                # past a latency-ramp cutoff) toward the feasible region.
                key = (value, -prediction.total_time_s)
                hit = cache[state] = (prediction, value, key)
                if collect:
                    evaluated.append((prediction, value))
                return hit

            rng = random.Random(self._solve_seed())
            starts = self._starting_states(space, rng)

            best_prediction = None
            best_utility = NO_UTILITY
            best_key = None
            visits = 0
            #: best utility seen after each restart — the convergence story
            trajectory: List[float] = []
            # A restart from a start already climbed in this solve climbs the
            # same path: every score it reads is fixed in the cache.
            climbs: Dict[Tuple[int, ...], Tuple] = {}
            for start in starts:
                climb = climbs.get(start)
                if climb is None:
                    climb = climbs[start] = self._ascend(space, start, cache,
                                                         evaluate)
                (prediction, value, key), steps = climb
                visits += steps
                if best_key is None or key > best_key:
                    best_prediction, best_utility, best_key = prediction, value, key
                trajectory.append(best_utility)

            result = SolverResult(
                best=best_prediction,
                utility=best_utility,
                evaluations=len(cache),
                visits=visits,
                evaluated=evaluated,
            )
            span.end(
                visits=result.visits,
                evaluations=result.evaluations,
                pruned=result.visits - result.evaluations,
                best_utility=best_utility,
                trajectory=trajectory,
            )
        metrics = self.telemetry.metrics
        metrics.counter(SOLVER_SOLVES).inc()
        metrics.counter(SOLVER_VISITS).inc(result.visits)
        metrics.counter(SOLVER_EVALUATIONS).inc(result.evaluations)
        metrics.counter(SOLVER_PRUNED).inc(result.visits - result.evaluations)
        return result

    # -- internals --------------------------------------------------------------------

    def _starting_states(self, space: SearchSpace,
                         rng: random.Random) -> List[Tuple[int, ...]]:
        """Deterministic spread of restart points.

        Always includes the first alternative (a stable anchor — for the
        paper's applications this is the local plan at the first
        fidelity, which is always feasible), plus random states.
        """
        starts = [space.first_state]
        sizes = space.coordinate_sizes()
        for _ in range(self.restarts - 1):
            # One draw per coordinate, size-1 ones included: the draws
            # set the starting points, and so the visits charged as CPU.
            starts.append(tuple([rng.randrange(s) for s in sizes]))
        return starts

    def _ascend(self, space: SearchSpace, start: Tuple[int, ...],
                cache: Dict[Tuple[int, ...], Tuple], evaluate):
        """Climb from *start*; returns the peak's score and the visits.

        A score is ``(prediction, utility, rank key)``.  Every state
        looked at is a visit, whether *cache* already holds its score or
        *evaluate* computes it.
        """
        state = start
        hit = cache[state] if state in cache else evaluate(state)
        visits = 1
        for _ in range(self.max_steps):
            best_key, climb = hit[2], None
            for neighbor in space.neighbors(state):
                n_hit = (cache[neighbor] if neighbor in cache
                         else evaluate(neighbor))
                visits += 1
                if n_hit[2] > best_key:
                    best_key, climb = n_hit[2], (neighbor, n_hit)
            if climb is None:
                break
            state, hit = climb
        return hit, visits
