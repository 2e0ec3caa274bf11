"""Integration: the cross-run self-tuning loop (predictor persistence).

This is the repo's round-trip gate: a cold scenario run persists its
predictor state, a warm run loads it, and the digests prove the bytes
survived intact.  Determinism contracts ride along — warm runs are
byte-reproducible from the same store state, and store-less runs are
byte-identical to what they produced before the store existed.
"""

import pytest

from repro.experiments.accuracy import is_converging, run_accuracy_experiment
from repro.predictors import PredictorStore
from repro.scenarios import canned_spec
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import run_sweep, sweep_to_json

SCENARIO = "walk-in-office"

#: each client's ``state_digest`` after a cold smoke run of SCENARIO
#: with ``save_predictors=True``, as persisted before samples shared
#: their repeated parts and demand models their windows: keeping less
#: in memory must not move a persisted byte
PERSISTED_STATE = {
    "itsy": "2569ded1ea60a11716084aab301e3a8c8b41196521cea503f91aec2d311ba7f2",
}


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    """One cold run's persisted state plus its report."""
    root = tmp_path_factory.mktemp("pstore")
    report = run_scenario(canned_spec(SCENARIO), profile="smoke",
                          predictor_store=str(root), save_predictors=True)
    return root, report


class TestRoundTripGate:
    def test_cold_run_persists_and_fingerprints(self, seeded_store):
        root, report = seeded_store
        assert report.predictor_state, "cold run reported no digests"
        store = PredictorStore(root)
        for client, digest in report.predictor_state.items():
            scope = store.scoped(client)
            assert scope.operations(), f"no documents for client {client}"
            assert scope.state_digest() == digest

    def test_persisted_state_is_pinned(self, seeded_store):
        _root, report = seeded_store
        assert report.predictor_state == PERSISTED_STATE

    def test_warm_run_sees_exactly_what_cold_run_saved(self, seeded_store):
        root, cold = seeded_store
        warm = run_scenario(canned_spec(SCENARIO), profile="smoke",
                            predictor_store=str(root))
        # without save_predictors the warm run's digests describe the
        # state it *loaded* — they must match what the cold run flushed
        assert warm.predictor_state == cold.predictor_state

    def test_warm_runs_are_byte_reproducible(self, seeded_store):
        root, _cold = seeded_store
        first = run_scenario(canned_spec(SCENARIO), profile="smoke",
                             predictor_store=str(root))
        second = run_scenario(canned_spec(SCENARIO), profile="smoke",
                              predictor_store=str(root))
        assert first.to_json() == second.to_json()

    def test_saving_warm_run_grows_history(self, seeded_store, tmp_path):
        root, _cold = seeded_store
        # copy the cold state so this test cannot disturb the fixture
        copy = PredictorStore(tmp_path / "copy")
        source = PredictorStore(root)
        for client in source.root.iterdir():
            if client.is_dir():
                copy.scoped(client.name).merge(
                    source.scoped(client.name))
        before = _total_samples(copy)
        run_scenario(canned_spec(SCENARIO), profile="smoke",
                     predictor_store=str(copy.root), save_predictors=True)
        assert _total_samples(copy) > before

    def test_storeless_report_has_no_predictor_state(self):
        report = run_scenario(canned_spec(SCENARIO), profile="smoke")
        assert report.predictor_state is None
        assert "predictor_state" not in report.to_dict()


class TestSweepStores:
    def test_sweep_isolates_variants_and_stays_deterministic(self, tmp_path):
        spec = canned_spec(SCENARIO)
        first = run_sweep(spec, variants=2, profile="smoke",
                          predictor_store=str(tmp_path / "a"),
                          save_predictors=True)
        second = run_sweep(spec, variants=2, profile="smoke",
                           predictor_store=str(tmp_path / "b"),
                           save_predictors=True)
        assert sweep_to_json(first) == sweep_to_json(second)
        scopes = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert scopes == ["variant-000", "variant-001"]


class TestConvergence:
    def test_prediction_error_is_monotone_nonincreasing(self):
        result = run_accuracy_experiment(scenario=SCENARIO, rounds=4,
                                         profile="smoke")
        warm = [entry for entry in result.rounds if entry.predicted_ops]
        assert len(warm) >= 3, "need >= 3 warm-started rounds to judge"
        assert is_converging(result), (
            f"median relative error increased between rounds: "
            f"{result.overall_trajectory}"
        )
        # and the history each round starts from really does grow
        priors = [entry.prior_samples for entry in result.rounds]
        assert priors == sorted(priors) and priors[0] == 0


def _total_samples(store: PredictorStore) -> int:
    total = 0
    for path in sorted(store.root.iterdir()):
        if not path.is_dir():
            continue
        scope = PredictorStore(path)
        for operation in scope.operations():
            stored = scope.load(operation)
            if stored is not None:
                total += stored.n_samples
    return total
