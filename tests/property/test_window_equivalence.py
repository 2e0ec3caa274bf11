"""Shared demand windows against one model per window (hypothesis).

A predictor keeps one recency-weighted regression per resource for each
data-object scope and bin.  The models of one scope and bin observe the
same samples, so they share one :class:`~repro.predictors.linear.DemandWindow`
of feature rows, and a refit computes the rows' side of the fit once
for all of them.  That sharing is only a saving: every prediction must
be bit for bit what one model per resource, keeping its own rows,
predicts.  The oracle is that per-model class,
``tests/linear_oracle.py``'s ``RecencyWeightedLinearModel``.

Both predictors observe the same samples and are asked the same
predictions after every sample; the answers are compared by ``repr``,
which tells ``0.0`` from ``-0.0``.  The streams diverge in the two ways
the shipped workloads make them: an energy resource skips the samples
of concurrent operations, and a resource that only some plans measure
is first seen mid-stream and then missing from samples its siblings
see.  Short windows make the trims and the forks of a model that fell
behind frequent.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.predictors import OperationDemandPredictor
from repro.predictors.base import NoModelError
from repro.predictors.binned import BinnedLinearPredictor
from tests.linear_oracle import RecencyWeightedLinearModel

PLANS = ("local", "remote", "hybrid")
OBJECTS = (None, "small.tex", "large.tex")
#: resources a sample may measure besides "cpu:local", which every
#: sample measures
OPTIONAL = ("cpu:remote", "energy:client", "net:bytes")
RESOURCES = ("cpu:local",) + OPTIONAL
VALUES = (0.0, -0.0, 1.0, 2.5, 7.0, 1e-300, 5e-324, 3e8)
FEATURES = (0.0, 1.0, 2.0, 14.0, 123.0)

#: (plan, data object, feature values, concurrent, measured resources,
#: usage values)
samples = st.lists(
    st.tuples(
        st.sampled_from(PLANS),
        st.sampled_from(OBJECTS),
        st.tuples(st.sampled_from(FEATURES), st.sampled_from(FEATURES)),
        st.booleans(),
        st.sets(st.sampled_from(OPTIONAL)),
        st.lists(st.sampled_from(VALUES), min_size=4, max_size=4),
    ),
    min_size=1, max_size=25,
)

#: a concurrent sample between two others: the energy model skips it
CONCURRENT_ENERGY = [
    ("local", None, (1.0, 0.0), False, {"energy:client"},
     [1.0, 2.5, 7.0, 0.0]),
    ("local", None, (2.0, 0.0), True, {"energy:client"},
     [2.5, 1.0, 3e8, 0.0]),
    ("local", None, (14.0, 0.0), False, {"energy:client"},
     [7.0, 0.0, 1.0, 0.0]),
    ("local", None, (2.0, 0.0), False, {"energy:client"},
     [1.0, 0.0, 2.5, 0.0]),
]
#: "cpu:remote" first appears in the third sample, then only in the
#: fifth; "energy:client" and "net:bytes" are in every sample
LOCAL = {"energy:client", "net:bytes"}
REMOTE = LOCAL | {"cpu:remote"}
MID_STREAM = [
    ("local", "small.tex", (14.0, 1.0), False, LOCAL, [1.0, 0.0, 2.5, 0.0]),
    ("local", "small.tex", (123.0, 1.0), False, LOCAL, [7.0, 1.0, 0.0, 0.0]),
    ("remote", "small.tex", (14.0, 1.0), False, REMOTE, [2.5, 3e8, 1.0, 7.0]),
    ("local", "small.tex", (123.0, 1.0), False, LOCAL, [1.0, 2.5, 0.0, 0.0]),
    ("remote", "large.tex", (123.0, 1.0), False, REMOTE, [2.5, 7.0, 1.0, 1.0]),
    ("local", "small.tex", (14.0, 1.0), False, LOCAL, [7.0, 1.0, 2.5, 0.0]),
]


@contextmanager
def per_model_oracle():
    """While open, new bins get one oracle model of their own each."""
    def new_model(self, _bin_key):
        return RecencyWeightedLinearModel(self.feature_names, self.decay,
                                          self.window)

    with mock.patch.object(BinnedLinearPredictor, "_new_model", new_model):
        yield


def _observe(predictor, sample, names):
    plan, data_object, features, concurrent, optional, values = sample
    measured = ("cpu:local",) + tuple(r for r in OPTIONAL if r in optional)
    predictor.observe_operation(
        timestamp=0.0,
        discrete={"plan": plan},
        continuous=dict(zip(names, features)),
        usage={resource: value for resource, value
               in zip(measured, values)},
        data_object=data_object,
        concurrent=concurrent,
    )


def _answer(predictor, resource, plan, features, data_object):
    try:
        return repr(predictor.predict(resource, {"plan": plan}, features,
                                      data_object=data_object))
    except NoModelError as exc:
        return f"no model: {exc}"


def _predictions(predictor, names):
    """Every resource's prediction for every plan and data object, at
    the observed feature values and one never observed."""
    return [
        _answer(predictor, resource, plan,
                {name: value for name in names}, data_object)
        for resource in RESOURCES
        for plan in PLANS + ("unseen",)
        for data_object in OBJECTS + ("unseen.tex",)
        for value in (2.0, 50.0)
    ]


def _drive(stream, names, decay, window):
    shared = OperationDemandPredictor(names, decay=decay, window=window)
    with per_model_oracle():
        oracle = OperationDemandPredictor(names, decay=decay, window=window)
    for step, sample in enumerate(stream):
        _observe(shared, sample, names)
        with per_model_oracle():
            _observe(oracle, sample, names)
        assert _predictions(shared, names) == _predictions(oracle, names), step
    return shared


@given(stream=samples,
       names=st.sampled_from([("pages",), ("pages", "figures")]),
       decay=st.sampled_from([0.5, 0.9, 1.0]),
       window=st.integers(min_value=2, max_value=6))
@example(stream=CONCURRENT_ENERGY, names=("pages",), decay=0.9, window=3)
@example(stream=MID_STREAM, names=("pages",), decay=0.9, window=3)
@settings(max_examples=150, deadline=None)
def test_shared_windows_predict_what_per_model_windows_do(stream, names,
                                                          decay, window):
    _drive(stream, names, decay, window)


def test_siblings_on_one_stream_share_one_window():
    predictor = _drive(MID_STREAM, ("pages",), 0.9, 3)
    general = predictor._models["cpu:local"]._general
    # "net:bytes" and "energy:client" saw every sample "cpu:local" did;
    # "cpu:remote" saw only some, so it reads a window of its own.
    for resource in ("energy:client", "net:bytes"):
        assert (predictor._models[resource]._general._generic._shared
                is general._generic._shared)
    assert (predictor._models["cpu:remote"]._general._generic._shared
            is not general._generic._shared)
    # Every bin's models saw the same samples: one window between them.
    for key, model in general._bins.items():
        for resource in ("energy:client", "net:bytes"):
            sibling = predictor._models[resource]._general._bins[key]
            assert sibling._shared is model._shared
