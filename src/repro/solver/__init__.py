"""Solvers searching the (plan × server × fidelity) space."""

from .._lazy import lazy_exports
from .heuristic import HeuristicSolver
from .space import SearchSpace, SolverResult, SpaceCache

# not on a run's path: the exhaustive solver, which only the solver
# ablation builds
__getattr__, __dir__, _lazy_names = lazy_exports(__name__, globals(), {
    "exhaustive": ("ExhaustiveSolver",),
})

__all__ = [
    "HeuristicSolver",
    "SearchSpace",
    "SolverResult",
    "SpaceCache",
    *_lazy_names,
]
