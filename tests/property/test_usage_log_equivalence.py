"""Columnar-vs-list usage log equivalence (hypothesis).

:class:`~repro.predictors.logs.UsageLog` keeps its history as columns:
a shared head per sample, a list of timestamps and one ``array('d')``
of every sample's usage values, and it rebuilds the samples on demand.
It replaced a plain list of :class:`UsageSample` objects purely to hold
less memory, so it must hand back the very same samples: the oracle is
that list-backed log (``tests/usage_log_oracle.py``).  Both logs get
the same appends, with a small ``max_samples`` so that trims happen,
and must agree on their length, their samples (by ``repr``, which tells
``0`` from ``0.0`` and ``0.0`` from ``-0.0``), their payload's JSON
bytes, a payload round trip, and a deep copy appended to on its own.
"""

import copy
import json

from hypothesis import example, given, settings, strategies as st

from repro.predictors.logs import UsageLog, UsageSample
from tests.usage_log_oracle import ListUsageLog

#: any double: signed zeros, subnormals, infinities and NaN included
VALUES = st.floats(allow_nan=True, allow_infinity=True)

#: (timestamp, discrete, continuous, usage, data object, concurrent,
#: file accesses); the resource set may change from one sample to the
#: next, and timestamps may be ints
STEPS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 10**6),
                  st.floats(min_value=0.0, max_value=1e6)),
        st.dictionaries(st.sampled_from(["plan", "fidelity"]),
                        st.one_of(st.sampled_from(["local", "remote"]),
                                  st.integers(0, 3)), max_size=2),
        st.dictionaries(st.sampled_from(["x", "y"]),
                        st.sampled_from([0.0, -0.0, 1.0, 2.5]), max_size=2),
        st.dictionaries(st.sampled_from(["cpu:local", "energy:client",
                                         "net:bytes", "time:total"]),
                        VALUES, max_size=4),
        st.one_of(st.none(), st.sampled_from(["doc-a", "doc-b"])),
        st.booleans(),
        st.dictionaries(st.sampled_from(["/a", "/b"]), st.integers(0, 99),
                        max_size=2),
    ),
    min_size=1, max_size=30,
)

#: samples appended to the copies only
EXTRA = [
    (7, {"plan": "local"}, {"x": 1.0}, {"cpu:local": 3.0}, None, False, {}),
    (8.5, {"plan": "remote"}, {}, {"net:bytes": -0.0, "cpu:local": 1.0},
     "doc-a", True, {"/a": 4}),
]


def _build(log, step):
    timestamp, discrete, continuous, usage, data_object, concurrent, files = step
    return UsageSample.build(timestamp, discrete, continuous, usage,
                             data_object=data_object, concurrent=concurrent,
                             file_accesses=files, parts=log.parts)


def _fill(log, steps):
    lengths = []
    for step in steps:
        log.append(_build(log, step))
        lengths.append(len(log))
    return lengths


def _reprs(log):
    return [repr(sample) for sample in log]


def _payload(log):
    return json.dumps(log.to_payload())


def _same(log, oracle):
    assert len(log) == len(oracle)
    assert _reprs(log) == _reprs(oracle)
    assert [repr(s) for s in log.samples()] == _reprs(oracle)
    assert _payload(log) == _payload(oracle)


@settings(max_examples=200, deadline=None)
@given(max_samples=st.integers(1, 6), steps=STEPS)
@example(max_samples=4, steps=[
    (0, {"plan": "local"}, {}, {"cpu:local": -0.0}, None, False, {}),
])
@example(max_samples=4, steps=[
    (0.5, {}, {"x": 1.0}, {"cpu:local": float("nan")}, None, False, {}),
])
@example(max_samples=4, steps=[
    (1.0, {}, {}, {"cpu:local": 5e-324, "net:bytes": -5e-324}, None, False,
     {}),
])
@example(max_samples=4, steps=[
    (3, {"plan": "remote"}, {}, {"cpu:local": 1.0}, "doc-a", True, {"/a": 1}),
])
@example(max_samples=3, steps=[  # the resource set changes mid-log
    (0, {}, {}, {"cpu:local": 1.0}, None, False, {}),
    (1, {}, {}, {"cpu:local": 2.0, "energy:client": 3.0, "net:bytes": 4.0},
     None, False, {}),
    (2, {}, {}, {}, None, False, {}),
    (3, {}, {}, {"net:bytes": 5.0, "time:total": 6.0}, None, True, {}),
    (4, {}, {}, {"energy:client": 7.0}, None, False, {}),
])
@example(max_samples=4, steps=[  # trims at exactly max_samples + 1
    (t, {"plan": "local"}, {"x": float(t)},
     {"cpu:local": float(t), "net:bytes": t + 0.5} if t % 2 else
     {"cpu:local": float(t)}, None, False, {})
    for t in range(5)
])
def test_columnar_log_matches_the_list_oracle(max_samples, steps):
    log, oracle = UsageLog(max_samples), ListUsageLog(max_samples)
    assert _fill(log, steps) == _fill(oracle, steps)
    _same(log, oracle)

    # The payload round trip: read back, it is the same log again.
    payload = log.to_payload()
    restored = UsageLog.from_payload(payload, max_samples=max_samples)
    _same(restored, ListUsageLog.from_payload(payload,
                                              max_samples=max_samples))
    assert _payload(restored) == _payload(log)

    # A copy appended to on its own: it grows (and trims) like the
    # oracle's copy, and neither original moves.
    before = _payload(log)
    clone, oracle_clone = copy.deepcopy(log), copy.deepcopy(oracle)
    _fill(clone, EXTRA)
    _fill(oracle_clone, EXTRA)
    _same(clone, oracle_clone)
    _same(log, oracle)
    assert _payload(log) == before
