"""Property-based tests for usage-log / predictor-store round trips.

The invariant under test is the one the self-tuning loop depends on:
whatever a run logs, a later run must reconstruct *exactly* — same
samples, same bin keys, same predictions — no matter what discrete
values, operation names, or merge orders the workload produced.
"""

import json

from hypothesis import example, given, settings, strategies as st

from repro.predictors import (
    OperationDemandPredictor,
    PredictorStore,
    UsageLog,
    UsageSample,
    merge_logs,
)
from repro.predictors.base import NoModelError

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False)

#: JSON-primitive discrete values plus the problematic non-primitives:
#: tuples (the original round-trip bug) and nested tuples.
primitive = st.one_of(
    st.text(max_size=8), st.integers(-100, 100), st.booleans(), st.none(),
    st.floats(min_value=-100, max_value=100,
              allow_nan=False, allow_infinity=False),
)
discrete_value = st.one_of(
    primitive,
    st.tuples(primitive, primitive),
    st.tuples(primitive, st.tuples(primitive, primitive)),
    st.lists(primitive, max_size=3),
)

samples = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(["plan", "vocab", "mode"]),
                        discrete_value, max_size=3),
        st.dictionaries(st.sampled_from(["x", "y"]), positive, max_size=2),
        st.dictionaries(st.sampled_from(["cpu:local", "net:bytes"]),
                        positive, min_size=1, max_size=2),
        st.one_of(st.none(), st.sampled_from(["doc-a", "doc-b"])),
        st.booleans(),
    ),
    min_size=1, max_size=25,
)


def build_log(raw):
    log = UsageLog()
    for index, (discrete, continuous, usage, data_object, conc) in \
            enumerate(raw):
        log.append(UsageSample.build(
            timestamp=float(index), discrete=discrete,
            continuous=continuous, usage=usage,
            data_object=data_object, concurrent=conc,
        ))
    return log


@given(raw=samples)
@settings(max_examples=80, deadline=None)
def test_usage_log_json_roundtrip_is_exact(raw):
    log = build_log(raw)
    restored = UsageLog.from_json(log.to_json())
    assert restored.samples() == log.samples()
    # and re-serializing produces identical bytes
    assert restored.to_json() == log.to_json()


@given(raw=samples)
@settings(max_examples=50, deadline=None)
def test_rebuilt_predictor_predicts_byte_identically(raw):
    live = OperationDemandPredictor(feature_names=["x", "y"])
    for index, (discrete, continuous, usage, data_object, conc) in \
            enumerate(raw):
        live.observe_operation(
            timestamp=float(index), discrete=discrete,
            continuous=continuous, usage=usage,
            data_object=data_object, concurrent=conc,
        )
    rebuilt = OperationDemandPredictor(
        feature_names=["x", "y"],
        log=UsageLog.from_json(live.log.to_json()),
    )
    for discrete, continuous, _usage, data_object, _conc in raw:
        for resource in ("cpu:local", "net:bytes"):
            try:
                expected = live.predict(resource, discrete, continuous,
                                        data_object=data_object)
            except NoModelError:
                continue
            assert rebuilt.predict(
                resource, discrete, continuous, data_object=data_object
            ) == expected


@given(raw=samples)
@settings(max_examples=40, deadline=None)
def test_store_save_load_save_is_a_fixed_point(raw, tmp_path_factory):
    store = PredictorStore(tmp_path_factory.mktemp("store"))
    predictor = OperationDemandPredictor(feature_names=["x"],
                                         log=build_log(raw))
    first = store.save("op", predictor)
    stored = store.load("op")
    assert stored.log.samples() == predictor.log.samples()
    # saving what was loaded reproduces the identical document
    assert store.save("op", stored) == first


@given(raw_a=samples, raw_b=samples)
@settings(max_examples=40, deadline=None)
def test_merge_logs_commutative_and_idempotent(raw_a, raw_b):
    a, b = build_log(raw_a), build_log(raw_b)
    ab = merge_logs(a, b)
    ba = merge_logs(b, a)
    assert ab.samples() == ba.samples()
    assert merge_logs(ab, ab).samples() == ab.samples()
    assert merge_logs(a, a).samples() == a.samples()


#: measured usage over arbitrary resource names, with signed zeros and
#: ints among the values: ``0.0 == -0.0``, yet they persist differently
usage_dicts = st.dictionaries(
    st.text(max_size=6),
    st.one_of(finite, st.sampled_from([0.0, -0.0]), st.integers(-5, 5)),
    max_size=4,
)


@given(usage=usage_dicts)
@settings(max_examples=80, deadline=None)
def test_sample_usage_is_its_sorted_float_pairs(usage):
    sample = UsageSample.build(timestamp=0.0, discrete={}, continuous={},
                               usage=usage)
    expected = tuple(sorted((k, float(v)) for k, v in usage.items()))
    # repr tells -0.0 from 0.0 and an int from a float; == does not
    assert repr(sample.usage) == repr(expected)
    assert repr(sample.usage_dict()) == repr(dict(expected))


@given(usages=st.lists(usage_dicts, min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
@example(usages=[{"r": 0.0}, {"r": -0.0}, {"r": 0}])
def test_usage_log_payload_roundtrip_keeps_signed_zeros(usages):
    log = UsageLog()
    for index, usage in enumerate(usages):
        log.append(UsageSample.build(timestamp=float(index), discrete={},
                                     continuous={}, usage=usage))
    payload = log.to_payload()
    # every sample persists its own values, the signs of zeros included
    assert json.dumps([sample["usage"] for sample in payload["samples"]]) \
        == json.dumps([[[k, float(v)] for k, v in sorted(usage.items())]
                       for usage in usages])
    restored = UsageLog.from_payload(payload).to_payload()
    assert restored == payload
    assert json.dumps(restored) == json.dumps(payload)
