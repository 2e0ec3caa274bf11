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
from .space import PredictFn, SearchSpace, SolverResult, UtilityFn


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
            return SolverResult(best=None, utility=float("-inf"), evaluations=0)

        span = self.telemetry.tracer.start_span(
            "solver.solve", space_size=size, restarts=self.restarts,
        )
        cache: Dict[Tuple[int, ...], Tuple] = {}
        collect = self.collect_evaluated
        evaluated: List[Tuple] = []
        visits = [0]

        def score(state: Tuple[int, ...]):
            visits[0] += 1
            hit = cache.get(state)
            if hit is None:
                prediction = predict(space.decode(state))
                value = utility(prediction)
                # Rank key: utility first, then lower predicted time.
                # The time tie-break lets the ascent walk off plateaus
                # where every alternative scores 0 (e.g. everything is
                # past a latency-ramp cutoff) toward the feasible region.
                key = (value, -prediction.total_time_s)
                hit = (prediction, value, key)
                cache[state] = hit
                if collect:
                    evaluated.append((prediction, value))
            return hit

        rng = random.Random(self._solve_seed())
        starts = self._starting_states(space, rng)

        best_prediction = None
        best_utility = float("-inf")
        best_key = None
        #: best utility seen after each restart — the convergence story
        trajectory: List[float] = []
        for start in starts:
            prediction, value, key = self._ascend(space, start, score)
            if best_key is None or key > best_key:
                best_prediction, best_utility, best_key = prediction, value, key
            trajectory.append(best_utility)

        result = SolverResult(
            best=best_prediction,
            utility=best_utility,
            evaluations=len(cache),
            visits=visits[0],
            evaluated=evaluated,
        )
        # end() is a no-op on the null tracer's spans, so the span
        # closes unconditionally — no path leaves it open.
        span.end(
            visits=result.visits,
            evaluations=result.evaluations,
            pruned=result.visits - result.evaluations,
            best_utility=best_utility,
            trajectory=trajectory,
        )
        metrics = self.telemetry.metrics
        metrics.counter("solver.solves").inc()
        metrics.counter("solver.visits").inc(result.visits)
        metrics.counter("solver.evaluations").inc(result.evaluations)
        metrics.counter("solver.pruned").inc(result.visits - result.evaluations)
        return result

    # -- internals --------------------------------------------------------------------

    def _starting_states(self, space: SearchSpace,
                         rng: random.Random) -> List[Tuple[int, ...]]:
        """Deterministic spread of restart points.

        Always includes the first alternative (a stable anchor — for the
        paper's applications this is the local plan at the first
        fidelity, which is always feasible), plus random states.
        """
        alternatives = space.all_alternatives()
        starts = [space.encode(alternatives[0])]
        sizes = space.coordinate_sizes()
        for _ in range(self.restarts - 1):
            starts.append(tuple(rng.randrange(s) for s in sizes))
        return starts

    def _ascend(self, space: SearchSpace, start: Tuple[int, ...], score):
        state = start
        prediction, value, key = score(state)
        for _ in range(self.max_steps):
            improved = False
            best_neighbor = None
            best_neighbor_key = key
            for neighbor in space.neighbors(state):
                n_prediction, n_value, n_key = score(neighbor)
                if n_key > best_neighbor_key:
                    best_neighbor = (neighbor, n_prediction, n_value, n_key)
                    best_neighbor_key = n_key
                    improved = True
            if not improved:
                break
            state, prediction, value, key = best_neighbor
        return prediction, value, key
