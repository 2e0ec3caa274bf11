"""Unit tests for the ``__deepcopy__`` hooks of the world's hot leaf types.

Frozen records are shared by a deep copy; logs and models copy the
lists that hold their (immutable) elements one level deep, and deep-copy
every other attribute through the memo.
"""

import copy

import pytest

from repro.coda.client import FileAccess
from repro.copying import deepcopy_state
from repro.monitors.snapshot import NetworkEstimate
from repro.network import TransferLog, TransferRecord
from repro.predictors.binned import BinnedLinearPredictor
from repro.predictors.linear import RecencyWeightedLinearModel
from repro.predictors.logs import UsageLog, UsageSample

FROZEN = [
    TransferRecord("a", "b", 1000, 0.0, 0.5, kind="rpc"),
    UsageSample.build(1.0, {"plan": "local"}, {"words": 3.0},
                      {"cpu:local": 2e8}, file_accesses={"/lm": 10}),
    FileAccess(2.0, "/coda/doc.tex", 4096, hit=False),
    NetworkEstimate(bandwidth_bps=1e6, latency_s=0.01),
]


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_are_shared(record):
    assert copy.deepcopy(record) is record
    assert copy.deepcopy([record])[0] is record


def _log(n=6):
    log = TransferLog()
    for i in range(n):
        src, dst = ("a", "b") if i % 2 else ("c", "a")
        log.append(TransferRecord(src, dst, 1000 * (i + 1), i, i + 0.5))
    return log


class TestDeepcopyState:
    def test_named_attributes_use_their_copier(self):
        log = _log()
        log.extra = [[1]]
        clone = deepcopy_state(log, {}, extra=list)
        assert clone.extra == [[1]] and clone.extra is not log.extra
        assert clone.extra[0] is log.extra[0]

    def test_other_attributes_are_deep_copied(self):
        # A field the hook does not name — one added later, say — is
        # copied in full by default.
        log = _log()
        log.extra = [[1]]
        clone = copy.deepcopy(log)
        assert clone.extra == [[1]]
        assert clone.extra is not log.extra
        assert clone.extra[0] is not log.extra[0]

    def test_a_cycle_back_to_the_object_resolves_to_the_copy(self):
        model = RecencyWeightedLinearModel(("x",))
        model.owner = [model]
        clone = copy.deepcopy(model)
        assert clone.owner[0] is clone

    def test_the_memo_keeps_one_copy_of_an_object_reached_twice(self):
        model = RecencyWeightedLinearModel(("x",))
        a, b = copy.deepcopy([model, model])
        assert a is b and a is not model


class TestTransferLog:
    def test_copy_shares_records_and_owns_its_indexes(self):
        log = _log()
        clone = copy.deepcopy(log)
        for window in (dict(host="a"), dict(host="c"),
                       dict(endpoint=("a", "b"))):
            records = log.recent(0.0, **window)
            assert records
            assert all(x is y for x, y in
                       zip(clone.recent(0.0, **window), records))
        assert (len(clone), clone.transfers, clone.bytes) == (
            len(log), log.transfers, log.bytes)

    def test_appending_to_the_copy_leaves_the_original_unchanged(self):
        log = _log()
        before = (len(log), log.transfers, log.bytes,
                  log.recent(0.0, host="a"), log.recent(0.0, host="b"),
                  log.recent(0.0, endpoint=("a", "b")))
        clone = copy.deepcopy(log)
        clone.append(TransferRecord("a", "b", 99, 10.0, 11.0))
        clone.append(TransferRecord("b", "d", 99, 11.0, 12.0))
        assert len(clone) == len(log) + 2
        after = (len(log), log.transfers, log.bytes,
                 log.recent(0.0, host="a"), log.recent(0.0, host="b"),
                 log.recent(0.0, endpoint=("a", "b")))
        assert after == before
        assert log.recent(0.0, host="d") == []

    def test_trimming_the_copy_leaves_the_original_unchanged(self):
        log = TransferLog(max_records=4)
        for i in range(4):
            log.append(TransferRecord("a", "b", 10, i, i + 0.5))
        held = log.recent(0.0, host="a")
        clone = copy.deepcopy(log)
        clone.append(TransferRecord("a", "b", 10, 5.0, 5.5))  # trims
        assert len(clone.recent(0.0, host="a")) == 3
        assert log.recent(0.0, host="a") == held


class TestUsageLog:
    def test_copy_shares_samples_and_owns_its_list(self):
        log = UsageLog()
        for i in range(3):
            log.append(UsageSample.build(i, {"plan": "local"}, {}, {"cpu": i}))
        clone = copy.deepcopy(log)
        assert all(x is y for x, y in zip(clone, log))
        clone.append(UsageSample.build(9, {"plan": "remote"}, {}, {"cpu": 9}))
        assert (len(log), len(clone)) == (3, 4)
        assert [s.timestamp for s in log] == [0, 1, 2]


class TestModels:
    def _model(self):
        model = RecencyWeightedLinearModel(("x",), decay=0.9, window=5)
        for x in range(4):
            model.observe({"x": float(x)}, 2.0 * x + 1.0)
        return model

    @pytest.mark.parametrize("fitted", [True, False])
    def test_observing_on_the_copy_leaves_the_original_unchanged(
            self, fitted):
        model = self._model()
        expected = self._model().predict({"x": 10.0})
        if fitted:
            model.predict({"x": 0.0})
        clone = copy.deepcopy(model)
        assert clone.predict({"x": 10.0}) == expected
        for x in range(6):  # past the window: the copy also trims
            clone.observe({"x": float(x)}, 50.0 - x)
        assert clone.predict({"x": 10.0}) != expected
        assert model.n_samples == 4
        assert model.predict({"x": 10.0}) == expected

    def test_refitting_the_copy_leaves_the_original_coefficients(self):
        model = self._model()
        model.predict({"x": 0.0})
        coef = model._coef.copy()
        clone = copy.deepcopy(model)
        assert clone._coef is not model._coef
        clone.observe({"x": 9.0}, 0.0)
        clone.predict({"x": 0.0})
        assert (model._coef == coef).all()

    def test_binned_copy_shares_keys_and_copies_models(self):
        predictor = BinnedLinearPredictor(("x",))
        for plan in ("local", "remote"):
            for x in range(3):
                predictor.observe({"plan": plan}, {"x": float(x)}, 1.0 + x)
        clone = copy.deepcopy(predictor)
        for key, model in predictor._bins.items():
            cloned_key = next(k for k in clone._bins if k == key)
            assert cloned_key is key
            assert clone._bins[key] is not model
        before = (predictor.n_samples,
                  predictor.predict({"plan": "local"}, {"x": 5.0}))
        clone.observe({"plan": "local"}, {"x": 5.0}, 100.0)
        clone.observe({"plan": "new"}, {"x": 5.0}, 100.0)
        assert clone.n_samples == predictor.n_samples + 2
        assert (predictor.n_samples,
                predictor.predict({"plan": "local"}, {"x": 5.0})) == before
        assert predictor.n_bins == 2 and clone.n_bins == 3
