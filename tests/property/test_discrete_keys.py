"""The bin key a decision context carries (hypothesis).

``OperationSpec.decision_context`` builds each alternative's discrete
context once, as a ``DiscreteContext`` that carries its bin key, and a
logged ``UsageSample`` holds that key as its ``discrete`` field.  The
predictors look bins up by the carried key instead of rebuilding it, so
it must be exactly what ``discrete_key`` builds from a plain mapping and
what a predictor rebuilt from the JSON usage log files its samples
under, for every kind of fidelity value: JSON primitives, tuples and
enums.
"""

import copy
import enum
import pickle

from hypothesis import given, settings, strategies as st

from repro.core import OperationSpec
from repro.core.plans import local_plan, remote_plan
from repro.odyssey import FidelitySpec
from repro.odyssey.fidelity import FidelityDimension, continuous_dimension
from repro.predictors import (
    DiscreteContext,
    NoModelError,
    OperationDemandPredictor,
    UsageLog,
    discrete_key,
)


class Quality(enum.Enum):
    LOW = 1
    HIGH = "high"


PRIMITIVES = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans(),
                       st.none(), st.floats(allow_nan=False, width=32))
VALUES = st.one_of(PRIMITIVES, st.sampled_from(Quality),
                   st.tuples(PRIMITIVES, st.sampled_from(Quality)),
                   st.tuples(PRIMITIVES, PRIMITIVES))


@st.composite
def specs(draw):
    """An operation with one or two discrete dimensions and, sometimes, a
    continuous one, over a local and a remote plan."""
    dimensions = [
        FidelityDimension(f"d{i}", tuple(draw(st.lists(
            VALUES, min_size=1, max_size=3, unique=True))))
        for i in range(draw(st.integers(1, 2)))
    ]
    if draw(st.booleans()):
        dimensions.append(continuous_dimension("level", 0.0, 1.0, steps=3))
    return OperationSpec(name="op", plans=(local_plan(), remote_plan()),
                         fidelity=FidelitySpec(dimensions),
                         input_params=("size",))


def outcome(predictor, discrete, continuous):
    try:
        return predictor.predict("cpu:local", discrete, continuous)
    except NoModelError:
        return None


@settings(max_examples=150, deadline=None)
@given(spec=specs(), data=st.data())
def test_carried_keys_equal_rebuilt_keys(spec, data):
    alternatives = spec.alternatives(["s1", "s2"])
    for alternative in alternatives:
        discrete, _continuous = spec.decision_context(alternative)
        assert type(discrete) is DiscreteContext
        assert discrete.key == discrete_key(dict(discrete))
        assert discrete_key(discrete) is discrete.key

    names = ("size",) + spec.continuous_fidelity_names()
    live = OperationDemandPredictor(names)
    runs = data.draw(st.lists(
        st.tuples(st.sampled_from(alternatives), st.floats(1.0, 100.0),
                  st.floats(0.0, 1e9)), max_size=12))
    for step, (alternative, size, cycles) in enumerate(runs):
        discrete, continuous_fid = spec.decision_context(alternative)
        sample = live.observe_operation(
            timestamp=float(step), discrete=discrete,
            continuous={"size": size, **continuous_fid},
            usage={"cpu:local": cycles},
            file_accesses={f"/v/{alternative.plan.name}": 10})
        assert sample.discrete is discrete.key
        assert sample.discrete == discrete_key(dict(sample.discrete))
        assert sample.discrete_dict().key is sample.discrete

    restored = UsageLog.from_json(live.log.to_json())
    assert [s.discrete for s in restored] == [s.discrete for s in live.log]
    for sample in restored:
        assert sample.discrete == discrete_key(dict(sample.discrete))

    rebuilt = OperationDemandPredictor(names, log=restored)
    size = data.draw(st.floats(1.0, 100.0))
    for alternative in alternatives:
        discrete, continuous_fid = spec.decision_context(alternative)
        continuous = {"size": size, **continuous_fid}
        assert outcome(rebuilt, discrete, continuous) == \
            outcome(live, discrete, continuous)
        assert rebuilt.has_bin("cpu:local", discrete) == \
            live.has_bin("cpu:local", discrete)
        assert rebuilt.files.predict(discrete) == live.files.predict(discrete)


@settings(max_examples=50, deadline=None)
@given(spec=specs())
def test_copies_and_pickles_keep_the_carried_key(spec):
    """``clone_world`` deep-copies alternatives and sweep workers pickle
    results; both must hand back a context that still carries its key."""
    for alternative in spec.alternatives(["s1"]):
        discrete, _continuous = spec.decision_context(alternative)
        for twin in (copy.deepcopy(alternative),
                     pickle.loads(pickle.dumps(alternative))):
            twin_discrete, _ = twin._context
            assert type(twin_discrete) is DiscreteContext
            assert twin_discrete == discrete
            assert twin_discrete.key == discrete.key
            assert spec.decision_context(twin)[0] is twin_discrete
