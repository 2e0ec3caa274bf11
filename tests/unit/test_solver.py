"""Unit tests for the placement solvers (repro.solver)."""

import pytest

from repro.core import OperationSpec, local_plan, remote_plan
from repro.core.plans import ExecutionPlan
from repro.core.utility import AlternativePrediction
from repro.odyssey import FidelitySpec
from repro.solver import ExhaustiveSolver, HeuristicSolver, SearchSpace


def make_spec(n_fidelities=2):
    return OperationSpec(
        name="op",
        plans=(local_plan(), remote_plan(),
               ExecutionPlan("hybrid", uses_remote=True,
                             file_access_role="remote")),
        fidelity=FidelitySpec.single(
            "level", tuple(range(n_fidelities))
        ),
    )


def predictor_from(table):
    """predict fn reading (plan, server, fidelity-key) -> time from a dict."""
    def predict(alternative):
        key = (alternative.plan.name, alternative.server,
               alternative.fidelity_dict()["level"])
        time_s = table.get(key, float("inf"))
        return AlternativePrediction(
            alternative=alternative,
            total_time_s=time_s,
            energy_joules=1.0,
            feasible=time_s != float("inf"),
        )
    return predict


def utility(prediction):
    if not prediction.feasible:
        return float("-inf")
    return 1.0 / prediction.total_time_s


class TestSearchSpace:
    def test_enumerates_plans_servers_fidelities(self):
        space = SearchSpace(make_spec(), ["s1", "s2"])
        # local×2 + remote×2×2 + hybrid×2×2 = 10
        assert space.size() == 10

    def test_no_servers_drops_remote_plans(self):
        space = SearchSpace(make_spec(), [])
        assert space.size() == 2
        assert all(not a.plan.uses_remote for a in space.all_alternatives())

    def test_encode_decode_roundtrip(self):
        space = SearchSpace(make_spec(), ["s1", "s2"])
        for alternative in space.all_alternatives():
            assert space.decode(space.encode(alternative)) == alternative

    def test_neighbors_differ_in_one_coordinate(self):
        space = SearchSpace(make_spec(), ["s1", "s2"])
        state = space.encode(space.all_alternatives()[0])
        for neighbor in space.neighbors(state):
            diffs = sum(1 for a, b in zip(state, neighbor) if a != b)
            assert diffs == 1


class TestExhaustiveSolver:
    def test_finds_global_best(self):
        table = {
            ("local", None, 0): 10.0,
            ("local", None, 1): 8.0,
            ("remote", "s1", 0): 3.0,
            ("remote", "s1", 1): 2.0,   # best
            ("hybrid", "s1", 0): 4.0,
            ("hybrid", "s1", 1): 5.0,
        }
        space = SearchSpace(make_spec(), ["s1"])
        result = ExhaustiveSolver().solve(space, predictor_from(table),
                                          utility)
        assert result.found
        best = result.best.alternative
        assert (best.plan.name, best.server) == ("remote", "s1")
        assert best.fidelity_dict()["level"] == 1
        assert result.evaluations == space.size()
        assert result.visits == result.evaluations

    def test_all_infeasible_reports_not_found(self):
        space = SearchSpace(make_spec(), ["s1"])
        result = ExhaustiveSolver().solve(space, predictor_from({}), utility)
        assert not result.found


class TestHeuristicSolver:
    def test_matches_exhaustive_on_smooth_landscape(self):
        # Utility smooth in each coordinate: coordinate ascent must find
        # the global optimum.
        table = {}
        for plan_idx, plan in enumerate(("local", "remote", "hybrid")):
            for server in ((None,) if plan == "local" else ("s1", "s2")):
                for level in range(3):
                    server_bonus = 0 if server != "s2" else 1
                    table[(plan, server, level)] = (
                        10.0 - plan_idx - level - server_bonus
                    )
        spec = make_spec(n_fidelities=3)
        space = SearchSpace(spec, ["s1", "s2"])
        exhaustive = ExhaustiveSolver().solve(
            space, predictor_from(table), utility
        )
        heuristic = HeuristicSolver(restarts=3, seed=1).solve(
            space, predictor_from(table), utility
        )
        assert heuristic.best.alternative == exhaustive.best.alternative

    def test_never_beats_exhaustive(self):
        import random
        rng = random.Random(99)
        for trial in range(10):
            table = {}
            for plan in ("local", "remote", "hybrid"):
                for server in ((None,) if plan == "local" else ("s1", "s2")):
                    for level in range(2):
                        table[(plan, server, level)] = rng.uniform(1, 100)
            space = SearchSpace(make_spec(), ["s1", "s2"])
            exhaustive = ExhaustiveSolver().solve(
                space, predictor_from(table), utility
            )
            heuristic = HeuristicSolver(seed=trial).solve(
                space, predictor_from(table), utility
            )
            assert heuristic.utility <= exhaustive.utility + 1e-12

    def test_deterministic_across_runs(self):
        table = {("local", None, 0): 5.0, ("local", None, 1): 3.0,
                 ("remote", "s1", 0): 2.0, ("remote", "s1", 1): 7.0,
                 ("hybrid", "s1", 0): 4.0, ("hybrid", "s1", 1): 6.0}
        space = SearchSpace(make_spec(), ["s1"])
        results = [
            HeuristicSolver(seed=5).solve(space, predictor_from(table),
                                          utility).best.alternative
            for _ in range(3)
        ]
        assert results[0] == results[1] == results[2]

    def test_escapes_zero_utility_plateau_via_time_tiebreak(self):
        # Everything has utility 0 except one fast point; pure utility
        # ascent would be stuck, the lower-time tie-break walks to it.
        def ramp_utility(prediction):
            if not prediction.feasible:
                return float("-inf")
            return max(0.0, 1.0 - prediction.total_time_s / 5.0)

        table = {}
        for plan in ("local", "remote", "hybrid"):
            for server in ((None,) if plan == "local" else ("s1",)):
                for level in range(2):
                    table[(plan, server, level)] = 50.0
        table[("remote", "s1", 1)] = 20.0
        table[("remote", "s1", 0)] = 2.0  # the only sub-cutoff point
        space = SearchSpace(make_spec(), ["s1"])
        result = HeuristicSolver(restarts=1, seed=0).solve(
            space, predictor_from(table), ramp_utility
        )
        chosen = result.best.alternative
        assert (chosen.plan.name, chosen.fidelity_dict()["level"]) == (
            "remote", 0
        )

    def test_ascent_stops_on_a_plateau(self):
        # Every alternative ties on the rank key: no neighbour improves,
        # so one climb looks at its start and the start's neighbours.
        table = {(plan, "s1" if plan != "local" else None, level): 5.0
                 for plan in ("local", "remote", "hybrid")
                 for level in range(2)}
        space = SearchSpace(make_spec(), ["s1"])
        result = HeuristicSolver(restarts=1, seed=0).solve(
            space, predictor_from(table), utility
        )
        assert result.visits == 1 + len(space.neighbors(space.first_state))

    def test_empty_space(self):
        spec = OperationSpec(
            name="op", plans=(remote_plan(),), fidelity=FidelitySpec.fixed(),
        )
        space = SearchSpace(spec, [])
        result = HeuristicSolver().solve(space, predictor_from({}), utility)
        assert not result.found and result.evaluations == 0

    def test_invalid_restarts(self):
        with pytest.raises(ValueError):
            HeuristicSolver(restarts=0)

    def test_visits_at_least_evaluations(self):
        table = {("local", None, 0): 1.0, ("local", None, 1): 2.0,
                 ("remote", "s1", 0): 3.0, ("remote", "s1", 1): 4.0,
                 ("hybrid", "s1", 0): 5.0, ("hybrid", "s1", 1): 6.0}
        space = SearchSpace(make_spec(), ["s1"])
        result = HeuristicSolver(restarts=4).solve(
            space, predictor_from(table), utility
        )
        assert result.visits >= result.evaluations > 0
