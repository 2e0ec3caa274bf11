"""Property-based tests for the placement solvers.

Besides the solvers' own invariants, caching is checked to be
*semantically invisible*: a solve through a :class:`SpaceCache`-shared
:class:`SearchSpace` picks the identical alternative, at the identical
utility, as a solve on a freshly built space, for arbitrary utility
landscapes and seeds.
"""

from hypothesis import given, settings, strategies as st

from repro.core import OperationSpec, local_plan, remote_plan
from repro.core.plans import ExecutionPlan
from repro.core.utility import AlternativePrediction
from repro.odyssey import FidelitySpec
from repro.solver import (
    ExhaustiveSolver,
    HeuristicSolver,
    SearchSpace,
    SpaceCache,
)


def spec_and_space(n_servers, n_fidelities):
    spec = OperationSpec(
        "op",
        (local_plan(), remote_plan(),
         ExecutionPlan("hybrid", uses_remote=True,
                       file_access_role="remote")),
        fidelity=FidelitySpec.single("level", tuple(range(n_fidelities))),
    )
    servers = [f"s{i}" for i in range(n_servers)]
    return spec, SearchSpace(spec, servers)


def make_space(n_servers, n_fidelities):
    spec = OperationSpec(
        "op", (local_plan(), remote_plan()),
        fidelity=FidelitySpec.single("level", tuple(range(n_fidelities))),
    )
    servers = [f"s{i}" for i in range(n_servers)]
    return spec, servers


def random_landscape(space, rng_values):
    """Assign each alternative a utility from the drawn value list."""
    table = {}
    for i, alternative in enumerate(space.all_alternatives()):
        table[alternative] = rng_values[i % len(rng_values)]

    def predict(alternative):
        return AlternativePrediction(
            alternative=alternative,
            total_time_s=1.0 / max(table[alternative], 1e-9),
            energy_joules=1.0,
        )

    def utility(prediction):
        return table[prediction.alternative]

    return predict, utility


@given(
    n_servers=st.integers(min_value=1, max_value=3),
    n_fidelities=st.integers(min_value=1, max_value=3),
    values=st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_heuristic_never_exceeds_exhaustive(n_servers, n_fidelities,
                                            values, seed):
    _spec, space = spec_and_space(n_servers, n_fidelities)
    predict, utility = random_landscape(space, values)
    exhaustive = ExhaustiveSolver().solve(space, predict, utility)
    heuristic = HeuristicSolver(seed=seed).solve(space, predict, utility)
    assert heuristic.utility <= exhaustive.utility + 1e-9


@given(
    n_servers=st.integers(min_value=0, max_value=3),
    n_fidelities=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_exhaustive_visits_whole_space_exactly_once(n_servers, n_fidelities):
    _spec, space = spec_and_space(n_servers, n_fidelities)
    seen = []

    def predict(alternative):
        seen.append(alternative)
        return AlternativePrediction(
            alternative=alternative, total_time_s=1.0, energy_joules=1.0,
        )

    result = ExhaustiveSolver().solve(space, predict, lambda p: 1.0)
    assert len(seen) == space.size()
    assert len(set(seen)) == space.size()
    assert result.evaluations == space.size()


@given(
    n_servers=st.integers(min_value=1, max_value=3),
    n_fidelities=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_encode_decode_bijection(n_servers, n_fidelities):
    _spec, space = spec_and_space(n_servers, n_fidelities)
    alternatives = space.all_alternatives()
    encoded = {space.encode(a) for a in alternatives}
    assert len(encoded) == len(alternatives)
    for alternative in alternatives:
        assert space.decode(space.encode(alternative)) == alternative


@given(
    n_servers=st.integers(min_value=0, max_value=3),
    n_fidelities=st.integers(min_value=1, max_value=4),
    values=st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_cached_space_solves_are_decision_identical(n_servers, n_fidelities,
                                                    values, seed):
    spec, servers = make_space(n_servers, n_fidelities)
    cache = SpaceCache()
    cached_space = cache.get(spec, servers)
    fresh_space = SearchSpace(spec, servers)

    predict, utility = random_landscape(fresh_space, values)
    # A fresh solver per leg: solves derive a per-solve seed from an
    # internal index, so only solvers at identical state are comparable.
    cached = HeuristicSolver(seed=seed).solve(cached_space, predict, utility)
    fresh = HeuristicSolver(seed=seed).solve(fresh_space, predict, utility)
    # And again through the cache: the second hit shares every memo.
    rewarmed = HeuristicSolver(seed=seed).solve(
        cache.get(spec, servers), predict, utility,
    )

    assert (cached.best and cached.best.alternative) == \
        (fresh.best and fresh.best.alternative) == \
        (rewarmed.best and rewarmed.best.alternative)
    assert cached.utility == fresh.utility == rewarmed.utility
    assert cached.evaluations == fresh.evaluations == rewarmed.evaluations


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_solver_solves_are_reproducible_but_distinct_per_call(seed):
    """Same solver state + same index → same walk; indices differ."""
    spec, servers = make_space(2, 3)
    space = SearchSpace(spec, servers)
    predict, utility = random_landscape(space, [3.0, 1.0, 4.0, 1.0, 5.0])

    first = HeuristicSolver(seed=seed).solve(space, predict, utility)
    again = HeuristicSolver(seed=seed).solve(space, predict, utility)
    assert first.best.alternative == again.best.alternative
    assert first.utility == again.utility
