"""Closed-form-vs-``lstsq`` fit equivalence (hypothesis).

The network monitor fits ``elapsed = L + n/B`` by recency-weighted least
squares.  A demand model whose window is flat (no features, or every
feature held one value over the window) fits the weighted mean, and
one whose window varied in exactly one feature fits a weighted line in
it.  All of these used to go through ``np.linalg.lstsq``; they are now
solved in closed form over Python floats purely for speed.  The oracles
below are those old solvers, the old demand-model refit among them.
Demand models tell which features varied from run lengths their
window keeps as it is appended to, checked
here against the old ``max == min`` test over the window; a window where
two or more features vary still solves with ``lstsq``, and its
coefficients must equal the old refit's bit for bit.

The closed form rounds differently, so the estimates agree within a
relative-plus-absolute bound rather than bit for bit; whether there *is*
an estimate (``None`` for fewer than two records, equal sizes or a
non-positive time per byte) must agree exactly.  The one deliberate
departure: the old fit ranked records with an unstable ``argsort`` over
finish times, so records that finished at the same instant got arbitrary
weights.  The log appends in finish order, and the oracle, like the new
fit, weights by log position.
"""

import copy
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.monitors import NetworkMonitor
from repro.monitors.snapshot import NetworkEstimate
from repro.network import Network, TransferRecord
from repro.predictors import WindowedLinearModel
from repro.sim import Simulator

DECAY = 0.9

#: |got - want| <= REL * |want| + ABS * scale, with *scale* the largest
#: value fitted (see :func:`close`), times the condition number of the
#: oracle's weighted design where the oracle solves a line.  These draws
#: reach ~1e-12 relative; the seed-1 benchmark scenarios' windows reach
#: 2e-15 on bandwidth and 8.3e-10 on latency, a latency near zero where
#: the ABS term applies.
REL = 1e-9
ABS = 1e-12

#: The smallest subnormal: the least a float result can be off by.
SUBNORMAL_STEP = 5e-324


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


def exact_mean(ys, decay):
    """The recency-weighted mean in exact rational arithmetic."""
    weight, step = Fraction(1), Fraction(decay)
    total = weighted = Fraction(0)
    for y in reversed(ys):
        total += weight
        weighted += weight * Fraction(y)
        weight *= step
    return weighted / total


def constant_columns(arr):
    """The old constancy test: per feature, ``max == min`` over the window."""
    return arr.max(axis=0) == arr.min(axis=0)


def lstsq_refit(xs, ys, decay):
    """The old k >= 1 refit: ``lstsq`` with constant columns zeroed.

    Returns the coefficients and, per feature, whether it held one value
    over the window.
    """
    n, k = len(ys), len(xs[0])
    arr = np.array(xs, dtype=float).reshape(n, k)
    constant = constant_columns(arr)
    if constant.any():
        arr = np.where(constant[None, :], 0.0, arr)
    design = np.ones((n, k + 1))
    design[:, 1:] = arr
    sw = np.sqrt(decay ** np.arange(n - 1, -1, -1, dtype=float))
    coef, *_ = np.linalg.lstsq(design * sw[:, None], np.array(ys) * sw,
                               rcond=None)
    return coef, tuple(bool(flag) for flag in constant)


def tolerance(want, scale, floor=0.0):
    return max(REL * abs(want) + ABS * scale, floor)


def close(got, want, scale, floor=0.0):
    return abs(got - want) <= tolerance(want, scale, floor)


def line_scales(sizes, ys, decay, slope):
    """The condition-aware scales of a weighted line's coefficients.

    The oracle solves the weighted design ``[1, x]`` uncentred, so its
    own rounding grows with the design's condition number (a window
    holding only 999 and 1000 makes it ~2e6); the centred closed form's
    does not.  Returns ``(intercept_scale, slope_scale)``: the condition
    number times the larger term of ``mean_y - slope * mean_x`` for the
    intercept, and times the rise over run across the window for the
    slope.
    """
    root_weights = np.sqrt(decay ** np.arange(len(ys) - 1, -1, -1,
                                              dtype=float))
    cond = np.linalg.cond(
        np.column_stack([np.ones(len(ys)), sizes]) * root_weights[:, None])
    return (cond * (max(ys) + abs(slope) * max(map(abs, sizes))),
            cond * max(ys) / (max(sizes) - min(sizes)))


def counting_lstsq():
    """Patch ``np.linalg.lstsq`` with a call-counting wrapper."""
    return mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq)


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


#: Two bulk records finishing together, 0 and 1 bytes, 10 ns apart in
#: elapsed time.  The closed form's 99999999.49752407 B/s is exact; the
#: oracle's 99999999.61044079 is 1.13e-9 off, its own conditioning.
TWO_BULK_RECORDS = [
    TransferRecord("c", "s", 0, started_at=-0.5, finished_at=0.0),
    TransferRecord("c", "s", 1, started_at=-0.50000001, finished_at=0.0),
]


@settings(max_examples=400, deadline=None)
@given(records=windows())
@example(records=TWO_BULK_RECORDS)
def test_closed_form_fit_matches_lstsq(records):
    """The fit matches the oracle's within ``REL`` and ``ABS`` times each
    coefficient's condition-aware scale (:func:`line_scales`).  The time
    per byte is compared, not the bandwidth, its reciprocal."""
    got = NetworkMonitor("c", Network(Simulator()), decay=DECAY)._fit(records)
    want = lstsq_fit(records)
    assert (got is None) == (want is None)
    if want is None:
        return
    per_byte = 1.0 / want.bandwidth_bps
    latency_scale, per_byte_scale = line_scales(
        [float(r.nbytes) for r in records], [r.elapsed for r in records],
        DECAY, per_byte)
    assert close(1.0 / got.bandwidth_bps, per_byte, per_byte_scale)
    assert close(got.latency_s, want.latency_s, latency_scale)
    assert got.observed


@settings(max_examples=300, deadline=None)
@given(ys=st.lists(st.floats(0.0, 1e9), min_size=1, max_size=60),
       decay=st.sampled_from([0.5, 0.8, 0.9, 0.95, 1.0]))
@example(ys=[0.0, SUBNORMAL_STEP, SUBNORMAL_STEP, 0.0], decay=0.8)
@example(ys=[0.0, 3 * SUBNORMAL_STEP], decay=1.0)
def test_feature_free_model_is_its_weighted_mean(ys, decay):
    """The prediction is the weighted mean, within ``REL`` and ``ABS`` of
    the oracle's.  Below the smallest normal float, ``lstsq`` rounds once
    per term and lands on either side of the true mean, so there the two
    agree within a subnormal step; the model must also be within half a
    step of the exact mean: rounded once, not once per term."""
    model = WindowedLinearModel([], decay=decay, window=200)
    for y in ys:
        model.observe({}, y)
    got = model.predict({})
    assert got == model.weighted_mean()
    assert close(got, lstsq_mean(ys, decay), max(ys), SUBNORMAL_STEP)
    exact = exact_mean(ys, decay)
    assert abs(Fraction(got) - exact) <= (
        Fraction(SUBNORMAL_STEP) / 2 + Fraction(REL) * exact
        + Fraction(ABS * max(ys)))


NAMES = ("a", "b", "c")


@st.composite
def demand_runs(draw):
    """Observations whose features come from a 2-3 value alphabet, so
    runs of equal values start and break, over windows of 2-8 samples,
    so trims happen.  A repeated tail lets trims reach a flat window
    from a varying one.  ``more`` continues a copy taken at ``split``."""
    k = draw(st.integers(1, 3))
    alphabet = draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=3,
                             unique=True))
    row = st.tuples(*[st.sampled_from(alphabet)] * k)
    rows = draw(st.lists(row, min_size=1, max_size=25))
    rows += [rows[-1]] * draw(st.integers(0, 10))
    more = draw(st.lists(row, max_size=15))
    values = st.floats(0.0, 1e6)
    return dict(
        names=NAMES[:k], window=draw(st.integers(2, 8)),
        decay=draw(st.sampled_from([0.5, 0.9, 0.95, 1.0])),
        rows=rows, ys=draw(st.lists(values, min_size=len(rows),
                                    max_size=len(rows))),
        more=more, more_ys=draw(st.lists(values, min_size=len(more),
                                         max_size=len(more))),
        split=draw(st.integers(0, len(rows))),
        probe=draw(st.tuples(*[st.floats(-1e6, 1e6)] * k)))


def observe_all(model, run, history, rows, ys, check):
    """Feed *rows* and *ys* to *model*, appending each to *history*, and
    after each call *check(model, xs, ys)* with the last ``window``
    entries of *history*: the window the model should retain."""
    for x, y in zip(rows, ys):
        model.observe(dict(zip(run["names"], x)), y)
        history.append((x, y))
        window = history[-run["window"]:]
        check(model, [x for x, _ in window], [y for _, y in window])


@settings(max_examples=300, deadline=None)
@given(run=demand_runs())
def test_run_length_constancy_matches_max_equals_min(run):
    def check(model, xs, _ys):
        constant = constant_columns(np.array(xs, dtype=float))
        assert model.unidentified_features() == tuple(
            name for name, flag in zip(run["names"], constant) if flag)

    model = WindowedLinearModel(run["names"], decay=run["decay"],
                                       window=run["window"])
    split, history = run["split"], []
    observe_all(model, run, history, run["rows"][:split], run["ys"][:split],
                check)
    clone, clone_history = copy.deepcopy(model), list(history)
    observe_all(model, run, history, run["rows"][split:], run["ys"][split:],
                check)
    observe_all(clone, run, clone_history, run["more"], run["more_ys"], check)


#: A flat window of subnormal values: the exact weighted mean,
#: 0.9 * 5e-324 / 1.9, is under half the smallest subnormal, so it rounds
#: to 0.0, as lstsq's does.  Summed unlifted, the product and the division
#: each rounded up, to 5e-324.
SUBNORMAL_FLAT_WINDOW = dict(
    names=("a",), window=2, decay=0.9, rows=[(0.0,), (0.0,)],
    ys=[5e-324, 0.0], more=[], more_ys=[], split=2, probe=(0.0,))


@settings(max_examples=300, deadline=None)
@given(run=demand_runs())
@example(run=SUBNORMAL_FLAT_WINDOW)
def test_flat_windows_fit_the_weighted_mean_varying_ones_lstsq(run):
    def check(model, xs, ys):
        want, constant = lstsq_refit(xs, ys, run["decay"])
        with counting_lstsq() as lstsq:
            got = model.predict(probe)
        varying = [name for name, flag in zip(run["names"], constant)
                   if not flag]
        if not varying:
            assert model._coef is None and model._varying is None
            assert got == model.weighted_mean()
            oracle = max(float(np.array([1.0, *run["probe"]]) @ want), 0.0)
            assert close(got, oracle, max(ys))
        elif len(varying) == 1 and lstsq.call_count == 0:
            # The closed-form line; its accuracy against the oracle is
            # test_one_varying_feature_fits_a_line_without_lstsq's job.
            assert model._coef is None and model._varying == varying[0]
        else:
            # Two or more varied, or one varied but its spread
            # underflowed: the old lstsq refit, bit for bit.
            assert model._coef.tobytes() == want.tobytes()

    probe = dict(zip(run["names"], run["probe"]))
    model = WindowedLinearModel(run["names"], decay=run["decay"],
                                       window=run["window"])
    observe_all(model, run, [], run["rows"], run["ys"], check)


@st.composite
def line_runs(draw):
    """Windows where one feature varies over a few input sizes (integers
    scaled by a power of two) and the others hold a value."""
    k = draw(st.integers(1, 3))
    scale = 2.0 ** draw(st.integers(-6, 10))
    sizes = draw(st.lists(st.integers(0, 1000), min_size=2, max_size=4,
                          unique=True))
    held = draw(st.tuples(*[st.floats(-1e3, 1e3)] * k))
    varying = draw(st.integers(0, k - 1))

    def row(size):
        x = list(held)
        x[varying] = size * scale
        return tuple(x)

    rows = [row(size) for size in draw(st.lists(st.sampled_from(sizes),
                                                min_size=2, max_size=40))]
    return dict(
        names=NAMES[:k], varying=varying,
        window=draw(st.integers(2, 40)),
        decay=draw(st.sampled_from([0.5, 0.9, 0.95, 1.0])),
        rows=rows, ys=draw(st.lists(st.floats(0.0, 1e6), min_size=len(rows),
                                    max_size=len(rows))),
        probe=draw(st.tuples(*[st.floats(-1e6, 1e6)] * k)))


#: A line through (0, 0.0) and (1, 5e-324): the intercept is 0.0, as
#: lstsq's is.  Unlifted, ``Sxy`` rounded to 0.0 and the intercept came
#: out as the rounded-up mean, 5e-324.
SUBNORMAL_LINE_WINDOW = dict(
    names=("a",), varying=0, window=2, decay=0.5, rows=[(0.0,), (1.0,)],
    ys=[0.0, 5e-324], probe=(0.0,))

#: Two all-subnormal lines where the closed form is exact and lstsq is one
#: subnormal step off: the intercept 1e-323 against lstsq's 1.5e-323, and
#: the slope 0.0 (the exact 2.47e-324, rounded to even) against 5e-324.
SUBNORMAL_INTERCEPT_WINDOW = dict(
    names=("a",), varying=0, window=2, decay=0.5, rows=[(1.0,), (2.0,)],
    ys=[5e-324, 0.0], probe=(0.0,))
SUBNORMAL_SLOPE_WINDOW = dict(
    names=("a",), varying=0, window=2, decay=0.5, rows=[(0.0,), (2.0,)],
    ys=[0.0, 5e-324], probe=(0.0,))


@settings(max_examples=300, deadline=None)
@given(run=line_runs())
@example(run=SUBNORMAL_LINE_WINDOW)
@example(run=SUBNORMAL_INTERCEPT_WINDOW)
@example(run=SUBNORMAL_SLOPE_WINDOW)
def test_one_varying_feature_fits_a_line_without_lstsq(run):
    """The closed-form line matches the oracle's coefficients, and so its
    predictions, within ``REL`` and ``ABS`` times each coefficient's
    condition-aware scale (:func:`line_scales`), and never closer than
    one subnormal step: below that no float result can be nearer.
    These draws stay within about ``4 * eps * cond * scale`` of the
    oracle."""
    def check(model, xs, ys):
        want, constant = lstsq_refit(xs, ys, run["decay"])
        with counting_lstsq() as lstsq:
            got = model.predict(probe)
        assert lstsq.call_count == 0
        if all(constant):
            assert got == model.weighted_mean()
            return
        assert model._coef is None
        assert model._varying == run["names"][run["varying"]]
        sizes = [x[run["varying"]] for x in xs]
        intercept, slope = want[0], want[1 + run["varying"]]
        intercept_scale, slope_scale = line_scales(sizes, ys, run["decay"],
                                                   slope)
        step = SUBNORMAL_STEP
        assert close(model._intercept, intercept, intercept_scale, step)
        assert close(model._slope, slope, slope_scale, step)
        x = run["probe"][run["varying"]]
        assert abs(got - max(intercept + slope * x, 0.0)) <= (
            tolerance(intercept, intercept_scale, step)
            + tolerance(slope, slope_scale, step) * abs(x))

    probe = dict(zip(run["names"], run["probe"]))
    model = WindowedLinearModel(run["names"], decay=run["decay"],
                                       window=run["window"])
    observe_all(model, run, [], run["rows"], run["ys"], check)


def test_underflowed_spread_falls_back_to_lstsq():
    """``Sxx <= 0`` although the feature varied: the one sample that
    differs has a weight that underflowed to zero (``0.5**1099``).  The
    fit goes to the oracle, which sees no spread either and predicts the
    weighted mean of the others."""
    n = 1100
    xs = [(1.0,)] + [(0.0,)] * (n - 1)
    ys = [1e6] + [5.0] * (n - 1)
    model = WindowedLinearModel(("a",), decay=0.5, window=n)
    for x, y in zip(xs, ys):
        model.observe({"a": x[0]}, y)
    assert model.unidentified_features() == ()
    with counting_lstsq() as lstsq:
        got = model.predict({"a": 3.0})
    assert lstsq.call_count == 1
    want, constant = lstsq_refit(xs, ys, 0.5)
    assert constant == (False,)
    assert model._coef.tobytes() == want.tobytes()
    assert got == max(float(np.array([1.0, 3.0]) @ want), 0.0)
    assert close(got, 5.0, 1e6)
