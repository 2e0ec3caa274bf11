"""Property-based tests for the demand predictors."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.predictors import (
    BinnedLinearPredictor,
    EWMAModel,
    FileAccessPredictor,
    RecencyWeightedLinearModel,
)
from repro.predictors.base import NoModelError, OperationDemandPredictor
from repro.predictors.datamodel import DataSpecificPredictor

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


@given(
    slope=st.floats(min_value=0.0, max_value=100.0),
    intercept=st.floats(min_value=0.0, max_value=1000.0),
    xs=st.lists(st.floats(min_value=0.0, max_value=100.0),
                min_size=3, max_size=30, unique=True),
    probe=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=80, deadline=None)
def test_linear_model_recovers_noiseless_linear_data(slope, intercept, xs,
                                                     probe):
    """On exactly linear data the fit is exact (within float tolerance),
    regardless of recency weighting.

    Requires an identifiable design: x values clustered within float
    dust of each other (a spread below ~1e-6) cannot pin down a slope,
    so such draws are discarded rather than asserted on.
    """
    assume(max(xs) - min(xs) >= 1e-3)
    model = RecencyWeightedLinearModel(["x"], decay=0.9)
    for x in xs:
        model.observe({"x": x}, intercept + slope * x)
    expected = max(intercept + slope * probe, 0.0)
    assert model.predict({"x": probe}) == pytest.approx(
        expected, rel=1e-4, abs=1e-3
    )


@given(values=st.lists(positive, min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_weighted_mean_within_observed_range(values):
    model = RecencyWeightedLinearModel([], decay=0.8)
    for value in values:
        model.observe({}, value)
    mean = model.weighted_mean()
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


@given(values=st.lists(positive, min_size=1, max_size=50),
       alpha=st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_ewma_stays_within_observed_range(values, alpha):
    ewma = EWMAModel(alpha=alpha)
    for value in values:
        ewma.observe(value)
    assert min(values) - 1e-9 <= ewma.value <= max(values) + 1e-9


@given(
    observations=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), positive, positive),
        min_size=1, max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_binned_predictions_are_nonnegative(observations):
    predictor = BinnedLinearPredictor(["x"])
    for bin_key, x, y in observations:
        predictor.observe({"bin": bin_key}, {"x": x}, y)
    for bin_key in ("a", "b", "c", "unseen"):
        value = predictor.predict({"bin": bin_key}, {"x": 5.0})
        assert value >= 0.0
        assert math.isfinite(value)


@given(
    rounds=st.lists(
        st.sets(st.sampled_from(["/v/a", "/v/b", "/v/c"])),
        min_size=1, max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_file_likelihoods_are_probabilities(rounds):
    predictor = FileAccessPredictor(alpha=0.4)
    for accessed in rounds:
        predictor.observe({}, {path: 100 for path in accessed})
    for _path, _size, likelihood in predictor.predict({}):
        assert 0.0 <= likelihood <= 1.0


@given(
    rounds=st.lists(
        st.sets(st.sampled_from(["/v/a", "/v/b"])),
        min_size=1, max_size=20,
    ),
    cached=st.sets(st.sampled_from(["/v/a", "/v/b"])),
)
@settings(max_examples=60, deadline=None)
def test_expected_fetch_bounded_by_total_uncached_size(rounds, cached):
    predictor = FileAccessPredictor(alpha=0.4)
    sizes = {"/v/a": 1000, "/v/b": 500}
    for accessed in rounds:
        predictor.observe({}, {p: sizes[p] for p in accessed})
    fetch = predictor.expected_fetch_bytes({}, cached_paths=cached)
    max_possible = sum(size for path, size in sizes.items()
                       if path not in cached)
    assert 0.0 <= fetch <= max_possible + 1e-9


class MeanModel:
    """A pure custom model: untrained (ValueError) until first observed."""

    def __init__(self, scale):
        self.scale = scale
        self.total = 0.0
        self.n = 0

    def observe(self, discrete, continuous, value, data_object=None):
        self.total += value
        self.n += 1

    def predict(self, discrete, continuous, data_object=None):
        if not self.n:
            raise ValueError("custom model has no observations")
        return self.scale * self.total / self.n + continuous["x"]


RESOURCES = ("cpu", "net", "disk")
PLANS = st.sampled_from(["local", "remote"])
XS = st.sampled_from([1.0, 2.0, 4.0])
OBJECTS = st.sampled_from([None, "doc"])

predictor_steps = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), PLANS, XS, OBJECTS,
                  st.dictionaries(st.sampled_from(RESOURCES), positive,
                                  max_size=3)),
        st.tuples(st.just("custom"), st.sampled_from(RESOURCES),
                  st.floats(min_value=0.5, max_value=2.0)),
        st.tuples(st.just("predict"), st.sampled_from(RESOURCES + ("gpu",)),
                  PLANS, XS, OBJECTS),
    ),
    max_size=40,
)


@given(steps=predictor_steps)
@settings(max_examples=80, deadline=None)
def test_memoized_predict_equals_model_prediction(steps):
    """The predict memo is invisible: every answer, hit or miss, is what
    the underlying model says, and a model-less or untrained resource
    raises NoModelError with the model's own message."""
    predictor = OperationDemandPredictor(feature_names=["x"])
    # An independent copy of the model registry, fed the same history.
    builtin = {}
    custom = {}

    def expected(resource, discrete, continuous, data_object):
        model = custom.get(resource) or builtin.get(resource)
        if model is None:
            return f"no demand model for resource {resource!r} yet"
        try:
            return float(model.predict(discrete, continuous,
                                       data_object=data_object))
        except ValueError as exc:
            return str(exc)

    for timestamp, step in enumerate(steps):
        if step[0] == "observe":
            _, plan, x, data_object, usage = step
            predictor.observe_operation(
                timestamp=float(timestamp), discrete={"plan": plan},
                continuous={"x": x}, usage=usage, data_object=data_object,
            )
            for resource, value in usage.items():
                if resource not in custom:
                    model = builtin.setdefault(
                        resource, DataSpecificPredictor(["x"]))
                    model.observe({"plan": plan}, {"x": x}, value,
                                  data_object=data_object)
        elif step[0] == "custom":
            _, resource, scale = step
            model = MeanModel(scale)
            custom[resource] = model
            predictor.set_custom_predictor(resource, model)
        else:
            _, resource, plan, x, data_object = step
            discrete, continuous = {"plan": plan}, {"x": x}
            want = expected(resource, discrete, continuous, data_object)
            # Twice: a miss that fills the memo, then a hit.
            for _ in range(2):
                try:
                    got = predictor.predict(resource, discrete, continuous,
                                            data_object=data_object)
                except NoModelError as exc:
                    got = str(exc)
                assert got == want
