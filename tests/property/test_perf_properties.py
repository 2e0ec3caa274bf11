"""Property-based tests for the performance layer.

Two invariants the perf work must never bend:

* the bench document schema is *stable* — any kernel document the
  harness can emit round-trips through the validator, and random
  deletions or corruptions of a valid document are rejected (so CI's
  schema gate has teeth);
* caching is *semantically invisible* — a solve through a
  :class:`SpaceCache`-shared :class:`SearchSpace` picks the identical
  alternative, at the identical utility, as a solve on a freshly built
  space, for arbitrary utility landscapes and seeds.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core import OperationSpec, local_plan, remote_plan
from repro.core.utility import AlternativePrediction
from repro.odyssey import FidelitySpec
from repro.perf.schema import (
    SCHEMA,
    BenchSchemaError,
    validate_bench_doc,
)
from repro.perf.timing import measure
from repro.solver import HeuristicSolver, SearchSpace, SpaceCache


def make_space(n_servers, n_fidelities):
    spec = OperationSpec(
        "op", (local_plan(), remote_plan()),
        fidelity=FidelitySpec.single("level", tuple(range(n_fidelities))),
    )
    servers = [f"s{i}" for i in range(n_servers)]
    return spec, servers


def landscape(space, values):
    table = {}
    for i, alternative in enumerate(space.all_alternatives()):
        table[alternative] = values[i % len(values)]

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

    predict, utility = landscape(fresh_space, values)
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
    predict, utility = landscape(space, [3.0, 1.0, 4.0, 1.0, 5.0])

    first = HeuristicSolver(seed=seed).solve(space, predict, utility)
    again = HeuristicSolver(seed=seed).solve(space, predict, utility)
    assert first.best.alternative == again.best.alternative
    assert first.utility == again.utility


def measurement_strategy():
    timing = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    return st.fixed_dictionaries({
        "number": st.integers(min_value=1, max_value=100),
        "repeats": st.integers(min_value=1, max_value=10),
        "best_s": timing, "mean_s": timing, "worst_s": timing,
    })


def rate_measurement_strategy():
    rate = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    return measurement_strategy().flatmap(
        lambda m: rate.map(lambda r: {**m, "events_per_s": r}))


def kernel_doc_strategy():
    nonnegative = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    return st.fixed_dictionaries({
        "schema": st.just(SCHEMA),
        "suite": st.just("kernel"),
        "quick": st.booleans(),
        "python": st.just("3.11.0"),
        "platform": st.just("linux"),
        "benchmarks": st.fixed_dictionaries({
            "event_throughput": rate_measurement_strategy(),
            "timer_churn": rate_measurement_strategy(),
            "contended_medium": rate_measurement_strategy().flatmap(
                lambda m: st.fixed_dictionaries({
                    "jobs": st.integers(min_value=1, max_value=1000),
                    "cost_ratio": nonnegative,
                }).map(lambda extra: {**m, **extra})),
        }),
    })


@given(doc=kernel_doc_strategy())
@settings(max_examples=40, deadline=None)
def test_schema_accepts_any_well_formed_document(doc):
    assert validate_bench_doc(doc) == "kernel"
    # Schema stability: the JSON round-trip validates identically.
    assert validate_bench_doc(json.loads(json.dumps(doc))) == "kernel"


@given(
    doc=kernel_doc_strategy(),
    path=st.sampled_from([
        ("schema",), ("suite",), ("quick",), ("python",), ("benchmarks",),
        ("benchmarks", "event_throughput"), ("benchmarks", "timer_churn"),
        ("benchmarks", "contended_medium"),
        ("benchmarks", "event_throughput", "best_s"),
        ("benchmarks", "timer_churn", "events_per_s"),
        ("benchmarks", "contended_medium", "worst_s"),
        ("benchmarks", "contended_medium", "jobs"),
        ("benchmarks", "contended_medium", "events_per_s"),
        ("benchmarks", "contended_medium", "cost_ratio"),
    ]),
    corrupt=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_schema_rejects_any_deleted_or_corrupted_field(doc, path, corrupt):
    target = doc
    for key in path[:-1]:
        target = target[key]
    if corrupt:
        # A list is the wrong type for every field of the document.
        target[path[-1]] = ["corrupt"]
    else:
        del target[path[-1]]
    try:
        validate_bench_doc(doc)
    except BenchSchemaError:
        pass
    else:
        action = "corrupting" if corrupt else "deleting"
        raise AssertionError(f"{action} {'.'.join(path)} went unnoticed")


@given(
    number=st.integers(min_value=1, max_value=5),
    repeats=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_measure_output_always_validates_as_measurement(number, repeats):
    result = measure("m", lambda: None, number=number, repeats=repeats)
    payload = result.to_dict()
    # Exactly the shape the bench schema demands of a measurement.
    assert set(payload) == {"number", "repeats", "best_s", "mean_s",
                            "worst_s"}
    assert payload["number"] == number and payload["repeats"] == repeats
    assert 0.0 <= payload["best_s"] <= payload["mean_s"] <= payload["worst_s"]
