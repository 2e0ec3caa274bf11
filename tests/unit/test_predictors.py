"""Unit tests for the self-tuning predictors (repro.predictors)."""

import numpy as np
import pytest

from repro.predictors import (
    BinnedLinearPredictor,
    DataSpecificPredictor,
    DiscreteContext,
    EWMAModel,
    FileAccessPredictor,
    NoModelError,
    OperationDemandPredictor,
    WindowedLinearModel,
    UsageLog,
    UsageSample,
)


class TestLinearModel:
    def test_recovers_exact_linear_relationship(self):
        model = WindowedLinearModel(["x"])
        for x in (1.0, 2.0, 5.0, 8.0):
            model.observe({"x": x}, 3.0 + 2.0 * x)
        assert model.predict({"x": 10.0}) == pytest.approx(23.0, rel=1e-6)

    def test_constant_data_predicts_constant(self):
        model = WindowedLinearModel(["x"])
        for _ in range(5):
            model.observe({"x": 4.0}, 7.0)
        assert model.predict({"x": 4.0}) == pytest.approx(7.0)

    def test_no_features_gives_weighted_mean(self):
        model = WindowedLinearModel([], decay=0.5)
        model.observe({}, 0.0)
        model.observe({}, 10.0)
        # newest weight 1, older 0.5: mean = 10/1.5
        assert model.weighted_mean() == pytest.approx(10.0 / 1.5)

    def test_recency_tracks_level_shift(self):
        stale = WindowedLinearModel([], decay=1.0)
        fresh = WindowedLinearModel([], decay=0.5)
        for model in (stale, fresh):
            for _ in range(10):
                model.observe({}, 100.0)
            for _ in range(3):
                model.observe({}, 200.0)
        assert fresh.predict({}) > stale.predict({})

    def test_empty_model_raises(self):
        with pytest.raises(ValueError):
            WindowedLinearModel(["x"]).predict({"x": 1.0})

    def test_predictions_clamped_nonnegative(self):
        model = WindowedLinearModel(["x"])
        model.observe({"x": 1.0}, 10.0)
        model.observe({"x": 2.0}, 5.0)
        # Extrapolating far right would go negative; clamp to 0.
        assert model.predict({"x": 100.0}) == 0.0

    def test_window_bounds_memory(self):
        model = WindowedLinearModel(["x"], window=10)
        for i in range(100):
            model.observe({"x": float(i)}, float(i))
        assert model.n_samples == 10

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            WindowedLinearModel([], decay=0.0)
        with pytest.raises(ValueError):
            WindowedLinearModel([], window=1)


class TestFlatWindowFit:
    """A window where every feature held one value fits its weighted
    mean, and one where a single feature varied a line, without
    ``lstsq``; a window where two features vary solves."""

    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        return calls

    @staticmethod
    def _refuse_lstsq(monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("lstsq called on a flat window")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)

    @pytest.mark.parametrize("names", [("x",), ("x", "y")])
    def test_flat_window_predicts_without_lstsq(self, monkeypatch, names):
        self._refuse_lstsq(monkeypatch)
        model = WindowedLinearModel(names, decay=0.5)
        for value in (1.0, 2.0, 4.0):
            model.observe({name: 5.0 for name in names}, value)
        mean = model.weighted_mean()
        assert model.predict({name: 5.0 for name in names}) == mean
        assert model.predict({name: 50.0 for name in names}) == mean
        assert model.unidentified_features() == names

    def test_window_trimmed_to_flat_predicts_without_lstsq(self, monkeypatch):
        model = WindowedLinearModel(["x", "y"], window=3)
        for x in (1.0, 2.0, 3.0, 3.0, 3.0):
            model.observe({"x": x, "y": 7.0}, 10.0 * x)
        self._refuse_lstsq(monkeypatch)
        assert model.predict({"x": 9.0, "y": 0.0}) == pytest.approx(30.0)

    # ys0: both features vary, one solve.  ys1: only x varies, a line
    # fitted in closed form with no solve.
    @pytest.mark.parametrize("ys, solves", [((1.0, 5.0), 1), ((5.0, 5.0), 0)],
                             ids=["ys0", "ys1"])
    def test_varying_window_solves_with_lstsq(self, lstsq_calls, ys, solves):
        model = WindowedLinearModel(["x", "y"])
        model.observe({"x": 1.0, "y": ys[0]}, 3.0)
        model.observe({"x": 2.0, "y": ys[1]}, 5.0)
        model.predict({"x": 3.0, "y": ys[1]})
        assert (model._coef is not None) == bool(solves)
        assert len(lstsq_calls) == solves


class TestEWMA:
    def test_converges_to_constant(self):
        ewma = EWMAModel(alpha=0.5)
        for _ in range(20):
            ewma.observe(3.0)
        assert ewma.value == pytest.approx(3.0)

    def test_initial_seed(self):
        ewma = EWMAModel(alpha=0.3, initial=1.0)
        assert ewma.value == 1.0
        ewma.observe(0.0)
        assert ewma.value == pytest.approx(0.7)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EWMAModel().value


class TestBinnedPredictor:
    def test_bins_are_independent(self):
        predictor = BinnedLinearPredictor(["n"])
        predictor.observe({"plan": "local"}, {"n": 1.0}, 100.0)
        predictor.observe({"plan": "remote"}, {"n": 1.0}, 5.0)
        assert predictor.predict({"plan": "local"}, {"n": 1.0}) == (
            pytest.approx(100.0)
        )
        assert predictor.predict({"plan": "remote"}, {"n": 1.0}) == (
            pytest.approx(5.0)
        )

    def test_unseen_bin_uses_generic(self):
        predictor = BinnedLinearPredictor(["n"])
        predictor.observe({"plan": "local"}, {"n": 2.0}, 10.0)
        # hybrid was never seen: falls back to the generic model.
        assert predictor.predict({"plan": "hybrid"}, {"n": 2.0}) == (
            pytest.approx(10.0)
        )
        assert not predictor.has_bin({"plan": "hybrid"})
        assert predictor.has_bin({"plan": "local"})

    def test_key_order_insensitive(self):
        predictor = BinnedLinearPredictor([])
        predictor.observe({"a": 1, "b": 2}, {}, 5.0)
        assert predictor.predict({"b": 2, "a": 1}, {}) == pytest.approx(5.0)


class TestDataSpecificPredictor:
    def test_data_model_overrides_general(self):
        predictor = DataSpecificPredictor(["pages"])
        # General trend: 1 cycle per page.  doc-x is special: always 500.
        predictor.observe({}, {"pages": 10.0}, 10.0, data_object="doc-a")
        predictor.observe({}, {"pages": 20.0}, 20.0, data_object="doc-b")
        for _ in range(3):
            predictor.observe({}, {"pages": 10.0}, 500.0, data_object="doc-x")
        assert predictor.predict({}, {"pages": 10.0},
                                 data_object="doc-x") == pytest.approx(500.0)

    def test_unknown_object_falls_back_to_general(self):
        predictor = DataSpecificPredictor(["pages"])
        predictor.observe({}, {"pages": 10.0}, 10.0, data_object="doc-a")
        predictor.observe({}, {"pages": 20.0}, 20.0, data_object="doc-a")
        value = predictor.predict({}, {"pages": 15.0}, data_object="doc-new")
        assert value == pytest.approx(15.0, rel=1e-6)

    def test_lru_eviction_of_objects(self):
        predictor = DataSpecificPredictor([], max_objects=2)
        for name in ("a", "b", "c"):
            predictor.observe({}, {}, 1.0, data_object=name)
        assert predictor.n_objects == 2
        assert not predictor.has_data_model("a")
        assert predictor.has_data_model("c")


class TestFileAccessPredictor:
    def test_likelihood_converges_to_one_for_always_accessed(self):
        predictor = FileAccessPredictor(alpha=0.5)
        for _ in range(5):
            predictor.observe({"plan": "x"}, {"/v/a": 100})
        files = predictor.predict({"plan": "x"})
        assert files == [("/v/a", 100, pytest.approx(1.0))]

    def test_likelihood_decays_for_abandoned_file(self):
        predictor = FileAccessPredictor(alpha=0.5)
        predictor.observe({}, {"/v/a": 100})
        for _ in range(10):
            predictor.observe({}, {"/v/b": 50})
        files = dict((p, lk) for p, _s, lk in predictor.predict({}))
        assert files["/v/b"] == pytest.approx(1.0)
        assert "/v/a" not in files  # below the negligible threshold

    def test_expected_fetch_bytes_skips_cached(self):
        predictor = FileAccessPredictor()
        predictor.observe({}, {"/v/a": 1000, "/v/b": 500})
        fetch = predictor.expected_fetch_bytes({}, cached_paths={"/v/a"})
        assert fetch == pytest.approx(500.0)

    def test_bins_separate_working_sets(self):
        predictor = FileAccessPredictor()
        predictor.observe({"vocab": "full"}, {"/v/lm.full": 277})
        predictor.observe({"vocab": "reduced"}, {"/v/lm.reduced": 60})
        full = predictor.likely_files({"vocab": "full"})
        assert full == ["/v/lm.full"]

    def test_data_object_specific_sets(self):
        predictor = FileAccessPredictor()
        predictor.observe({}, {"/v/a": 10}, data_object="doc-a")
        predictor.observe({}, {"/v/b": 20}, data_object="doc-b")
        assert predictor.likely_files({}, data_object="doc-a") == ["/v/a"]
        assert predictor.likely_files({}, data_object="doc-b") == ["/v/b"]


class TestOperationDemandPredictor:
    def make_sample_args(self, plan="local", n=1.0, cpu=100.0):
        return dict(
            timestamp=0.0,
            discrete={"plan": plan},
            continuous={"n": n},
            usage={"cpu:local": cpu},
        )

    def test_observe_then_predict(self):
        predictor = OperationDemandPredictor(["n"])
        predictor.observe_operation(**self.make_sample_args(n=1.0, cpu=10.0))
        predictor.observe_operation(**self.make_sample_args(n=2.0, cpu=20.0))
        assert predictor.predict("cpu:local", {"plan": "local"},
                                 {"n": 3.0}) == pytest.approx(30.0, rel=1e-6)

    def test_unknown_resource_raises(self):
        predictor = OperationDemandPredictor()
        with pytest.raises(NoModelError):
            predictor.predict("cpu:remote", {}, {})

    def test_concurrent_energy_skipped(self):
        predictor = OperationDemandPredictor()
        predictor.observe_operation(
            timestamp=0.0, discrete={}, continuous={},
            usage={"energy:client": 100.0, "cpu:local": 5.0},
            concurrent=True,
        )
        # CPU sample kept; energy sample dropped.
        assert predictor.predict("cpu:local", {}, {}) == pytest.approx(5.0)
        with pytest.raises(NoModelError):
            predictor.predict("energy:client", {}, {})

    def test_custom_predictor_override(self):
        class Fixed:
            def observe(self, *args, **kwargs):
                pass

            def predict(self, *args, **kwargs):
                return 42.0

        predictor = OperationDemandPredictor()
        predictor.set_custom_predictor("cpu:local", Fixed())
        assert predictor.predict("cpu:local", {}, {}) == 42.0

    def test_falsy_custom_model_is_not_bypassed(self):
        """A custom model that is falsy (it counts no samples yet) still
        answers for its resource, not the built-in model behind it."""
        class Counting:
            def __init__(self):
                self.samples = []

            def __len__(self):
                return len(self.samples)

            def observe(self, discrete, continuous, value, data_object=None):
                self.samples.append(value)

            def predict(self, discrete, continuous, data_object=None):
                return 42.0

            def has_bin(self, discrete):
                return True

        predictor = OperationDemandPredictor()
        predictor.observe_operation(timestamp=0.0, discrete={},
                                    continuous={}, usage={"cpu:local": 5.0})
        custom = Counting()
        predictor.set_custom_predictor("cpu:local", custom)
        assert not custom
        assert predictor.predict("cpu:local", {}, {}) == 42.0
        assert predictor.has_bin("cpu:local", {"plan": "unseen"})

    def test_rebuild_from_log(self):
        log = UsageLog()
        log.append(UsageSample.build(
            timestamp=0.0, discrete={"plan": "local"},
            continuous={"n": 1.0}, usage={"cpu:local": 50.0},
        ))
        predictor = OperationDemandPredictor(["n"], log=log)
        assert predictor.predict("cpu:local", {"plan": "local"},
                                 {"n": 1.0}) == pytest.approx(50.0)

    def test_file_accesses_feed_file_predictor(self):
        predictor = OperationDemandPredictor()
        predictor.observe_operation(
            timestamp=0.0, discrete={"plan": "local"}, continuous={},
            usage={"cpu:local": 1.0}, file_accesses={"/v/a": 100},
        )
        assert predictor.files.likely_files({"plan": "local"}) == ["/v/a"]


class TestUsageLog:
    def test_json_roundtrip(self):
        log = UsageLog()
        log.append(UsageSample.build(
            timestamp=1.5, discrete={"plan": "remote", "vocab": "full"},
            continuous={"len": 2.0}, usage={"cpu:remote": 1e9},
            data_object="doc", concurrent=True,
        ))
        restored = UsageLog.from_json(log.to_json())
        assert len(restored) == 1
        sample = restored.samples()[0]
        assert sample.discrete_dict() == {"plan": "remote", "vocab": "full"}
        assert sample.usage_dict() == {"cpu:remote": 1e9}
        assert sample.data_object == "doc" and sample.concurrent

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            UsageLog.from_json('{"version": 99, "samples": []}')

    def test_bounded(self):
        log = UsageLog(max_samples=10)
        for i in range(30):
            log.append(UsageSample.build(i, {}, {}, {"r": float(i)}))
        assert len(log) <= 10


class TestRoundTripFidelity:
    """Regressions for the persistence round-trip bugs.

    Before canonicalization, a tuple-valued discrete came back from JSON
    as a list, so a rebuilt predictor filed those samples under a bin no
    live lookup could ever hit again.
    """

    def test_tuple_valued_discrete_survives_json(self):
        log = UsageLog()
        log.append(UsageSample.build(
            timestamp=0.0, discrete={"point": ("full", 2)},
            continuous={}, usage={"cpu:local": 5.0},
        ))
        restored = UsageLog.from_json(log.to_json())
        assert restored.samples() == log.samples()

    def test_rebuilt_predictor_keeps_tuple_keyed_bins(self):
        live = OperationDemandPredictor(feature_names=[])
        for i in range(4):
            live.observe_operation(
                timestamp=float(i), discrete={"point": ("full", 2)},
                continuous={}, usage={"cpu:local": 100.0 + i},
            )
        rebuilt = OperationDemandPredictor(
            feature_names=[],
            log=UsageLog.from_json(live.log.to_json()),
        )
        context = {"point": ("full", 2)}
        assert rebuilt.has_bin("cpu:local", context)
        assert rebuilt.predict("cpu:local", context, {}) == \
            live.predict("cpu:local", context, {})

    def test_canonicalization_keeps_primitives_untouched(self):
        sample = UsageSample.build(
            timestamp=0.0,
            discrete={"s": "x", "i": 3, "f": 1.5, "b": True, "n": None},
            continuous={}, usage={"r": 1.0},
        )
        assert sample.discrete_dict() == {
            "s": "x", "i": 3, "f": 1.5, "b": True, "n": None,
        }


class TestZeroVarianceColumns:
    def test_constant_feature_predicts_weighted_mean_anywhere(self):
        # A feature observed at a single value carries no information; it
        # must not let the solver extrapolate along an unidentifiable
        # slope when probed at a different value.
        model = WindowedLinearModel(["x"], decay=0.5)
        model.observe({"x": 4.0}, 0.0)
        model.observe({"x": 4.0}, 10.0)
        expected = model.weighted_mean()
        assert model.predict({"x": 100.0}) == pytest.approx(expected)
        assert model.predict({"x": -7.0}) == pytest.approx(expected)

    def test_varying_feature_still_fits_a_slope(self):
        model = WindowedLinearModel(["x", "c"])
        for x in (1.0, 2.0, 5.0, 8.0):
            model.observe({"x": x, "c": 9.0}, 3.0 + 2.0 * x)
        # c is constant (dropped), x still drives the fit
        assert model.predict({"x": 10.0, "c": 9.0}) == pytest.approx(
            23.0, rel=1e-6)


class TestPredictFromModels:
    """``predict`` keeps no memo: every call asks the current model."""

    def test_never_observed_resource_raises_the_same_error_every_call(self):
        predictor = OperationDemandPredictor(feature_names=[])
        messages = []
        for _ in range(3):
            with pytest.raises(NoModelError) as excinfo:
                predictor.predict("never-seen", {}, {})
            messages.append(str(excinfo.value))
        assert messages == ["no demand model for resource 'never-seen' yet"] * 3

    def test_first_observation_makes_the_resource_predictable(self):
        predictor = OperationDemandPredictor(feature_names=[])
        with pytest.raises(NoModelError):
            predictor.predict("cpu:local", {}, {})
        predictor.observe_operation(
            timestamp=0.0, discrete={}, continuous={},
            usage={"cpu:local": 5.0},
        )
        assert predictor.predict("cpu:local", {}, {}) == pytest.approx(5.0)

    def test_alternatives_sharing_a_bin_get_identical_floats(self):
        predictor = OperationDemandPredictor(feature_names=["n"])
        for n, cycles in ((1.0, 10.0), (2.0, 21.0), (4.0, 39.0)):
            predictor.observe_operation(
                timestamp=n, discrete={"plan": "remote"},
                continuous={"n": n}, usage={"cpu:remote": cycles},
            )
        # remote@A and remote@B each carry their own context, but the
        # server is not part of the bin: both ask the same question.
        answers = [
            predictor.predict("cpu:remote", DiscreteContext({"plan": "remote"}),
                              {"n": 3.0})
            for _server in ("A", "B")
        ]
        assert type(answers[0]) is float
        assert answers[0] == answers[1]


class TestEWMACounts:
    def test_initial_seed_is_not_a_sample(self):
        model = EWMAModel(alpha=0.5, initial=3.0)
        assert model.n_samples == 0
        assert model.n_prior == 1
        assert model.value == 3.0
        model.observe(5.0)
        assert model.n_samples == 1

    def test_unseeded_model_counts_from_zero(self):
        model = EWMAModel(alpha=0.5)
        assert model.n_samples == 0
        assert model.n_prior == 0
        model.observe(2.0)
        model.observe(4.0)
        assert model.n_samples == 2
