"""Closed-form-vs-``lstsq`` fit equivalence (hypothesis).

The network monitor fits ``elapsed = L + n/B`` by recency-weighted least
squares, and a feature-free demand model's fit is a weighted mean.  Both
used to go through ``np.linalg.lstsq``; both are now solved in closed
form over Python floats purely for speed.  The oracles below are those
old solvers.

The closed form rounds differently, so the estimates agree within a
relative-plus-absolute bound rather than bit for bit; whether there *is*
an estimate (``None`` for fewer than two records, equal sizes or a
non-positive time per byte) must agree exactly.  The one deliberate
departure: the old fit ranked records with an unstable ``argsort`` over
finish times, so records that finished at the same instant got arbitrary
weights.  The log appends in finish order, and the oracle, like the new
fit, weights by log position.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.monitors import NetworkMonitor
from repro.monitors.snapshot import NetworkEstimate
from repro.network import TransferRecord
from repro.predictors import RecencyWeightedLinearModel

DECAY = 0.9

#: |got - want| <= REL * |want| + ABS * scale, with *scale* the largest
#: value fitted (see :func:`close`).  These draws reach ~1e-12 relative;
#: the seed-1 benchmark scenarios' windows reach 2e-15 on bandwidth and
#: 8.3e-10 on latency, a latency near zero where the ABS term applies.
REL = 1e-9
ABS = 1e-12


def lstsq_fit(records, decay=DECAY):
    """The old ``NetworkMonitor._fit``, weighting by log position."""
    if len(records) < 2:
        return None
    sizes = np.array([float(r.nbytes) for r in records])
    elapsed = np.array([r.elapsed for r in records])
    if np.ptp(sizes) <= 0:
        return None
    weights = decay ** np.arange(len(records) - 1, -1, -1)
    design = np.column_stack([np.ones_like(sizes), sizes])
    sw = np.sqrt(weights)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], elapsed * sw, rcond=None)
    latency, per_byte = float(coef[0]), float(coef[1])
    if per_byte <= 0:
        return None
    return NetworkEstimate(bandwidth_bps=1.0 / per_byte,
                           latency_s=max(latency, 0.0), observed=True)


def lstsq_mean(ys, decay):
    """The old feature-free refit: ``lstsq`` against a column of ones."""
    n = len(ys)
    sw = np.sqrt(decay ** np.arange(n - 1, -1, -1, dtype=float))
    coef, *_ = np.linalg.lstsq(np.ones((n, 1)) * sw[:, None],
                               np.array(ys) * sw, rcond=None)
    return max(float(coef[0]), 0.0)


def close(got, want, scale):
    return abs(got - want) <= REL * abs(want) + ABS * scale


def records_from(rows):
    """TransferRecords finishing at cumulative *gaps* (zeros make ties)."""
    out, now = [], 0.0
    for nbytes, elapsed, gap in rows:
        now += gap
        out.append(TransferRecord("c", "s", nbytes, started_at=now - elapsed,
                                  finished_at=now))
    return out


#: Sizes from a few fixed RPC/bulk sizes (so equal-size windows happen)
#: and from the whole range a transfer can have.
SIZES = st.one_of(st.sampled_from([0, 64, 200, 4_096, 65_536]),
                  st.integers(0, 2_000_000))


@st.composite
def windows(draw):
    """Records off a line ``elapsed = L + p*n``, jittered by far less than
    the line's rise over one byte, so the sign of the fitted ``p`` is
    never a rounding accident."""
    per_byte = draw(st.floats(1e-8, 1e-3)) * draw(st.sampled_from([1, -1]))
    latency = draw(st.floats(0.0, 0.5))
    if per_byte < 0:
        latency += 2_000_000 * -per_byte  # keep elapsed positive
    rows = draw(st.lists(
        st.tuples(SIZES, st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.5, 2.0])),
        max_size=40))
    jitter = 1e-4 * abs(per_byte)
    return records_from([(n, latency + per_byte * n + jitter * e, gap)
                         for n, e, gap in rows])


@settings(max_examples=400, deadline=None)
@given(records=windows())
def test_closed_form_fit_matches_lstsq(records):
    got = NetworkMonitor("c", network=None, decay=DECAY)._fit(records)
    want = lstsq_fit(records)
    assert (got is None) == (want is None)
    if want is None:
        return
    assert close(got.bandwidth_bps, want.bandwidth_bps, 0.0)
    assert close(got.latency_s, want.latency_s,
                 max(r.elapsed for r in records))
    assert got.observed


@settings(max_examples=300, deadline=None)
@given(ys=st.lists(st.floats(0.0, 1e9), min_size=1, max_size=60),
       decay=st.sampled_from([0.5, 0.8, 0.9, 0.95, 1.0]))
def test_feature_free_model_is_its_weighted_mean(ys, decay):
    model = RecencyWeightedLinearModel([], decay=decay, window=200)
    for y in ys:
        model.observe({}, y)
    assert model.predict({}) == model.weighted_mean()
    assert close(model.predict({}), lstsq_mean(ys, decay), max(ys))
