"""Recency-weighted linear regression — the default numeric model.

"The default predictor uses linear regression to model continuous
variables.  It adjusts for changes in application behavior over time by
giving more recent samples a greater weight in its predictions"
(paper §3.4).

:class:`WindowedLinearModel` fits ``y ≈ a + Σ b_i · x_i`` by weighted
least squares, with sample weights decaying geometrically in recency
order.  Its feature rows live in a :class:`DemandWindow`, which every
model observing the same sample stream shares: one predictor keeps a
model per resource for each data-object scope and bin, and the models
of one scope and bin see the same samples, so they keep one row list,
one trim and one set of feature runs between them, and each its own
column of values.

A feature that held one value over the window carries no information:
its column is zeroed and its effect routes through the intercept.  The
window keeps, per feature, the length of the trailing run of samples
equal to the newest value, so telling which features varied costs no
array.  A refit then takes one of three paths:

* **No feature varied** (k = 0, or a flat window): the least-squares
  fit is the weighted mean, and the model predicts it at any input.
* **One feature varied**: a weighted straight line in that feature,
  solved in closed form by :func:`weighted_line` over Python floats;
  the model predicts ``intercept + slope * x``.
* **Two or more varied** (or the one varying feature's spread lost to
  weight underflow): ``lstsq`` on the design with the constant
  columns zeroed.  Collinear features fall back to the minimum-norm
  solution.

The *x* side of the last two paths (the weights, their sum, ``x̄``,
``Sxx``, the weighted design) depends on the rows alone, so the window
computes it once per refit and each model adds its *y* side, in the
order of operations a model fitting alone would use: every model
predicts bit for bit what a model with its own copy of the rows would.

The first two paths store floats and predict without numpy.  numpy is
imported only by the third: its solve and the predictions that follow
it.  No shipped application has two varying continuous inputs, so no
shipped workload loads numpy at all.
"""

from __future__ import annotations

import copy
import sys
import weakref
from array import array
from math import ldexp
from typing import (TYPE_CHECKING, Any, Dict, Hashable, List, Mapping,
                    Optional, Sequence, Tuple)

from ..copying import deepcopy_state
from .logs import FeatureContext, FeatureRow, feature_row

if TYPE_CHECKING:
    import numpy as np


#: Below the smallest normal float, every product and quotient rounds to
#: a multiple of 2**-1074, so a weighted sum over subnormal values rounds
#: once per term and the division rounds again.  Lifted by 2**1074, the
#: smallest subnormal becomes 1.0 and the largest stays below 2**52: the
#: sums round at full precision, and lowering the result rounds once.
_MIN_NORMAL = sys.float_info.min
_SUBNORMAL_LIFT = 1074


def _subnormal_lift(ys: Sequence[float]) -> int:
    """The power of two to lift *ys* by: ``_SUBNORMAL_LIFT`` when every
    value is subnormal or zero and one is not zero, else 0."""
    if not any(ys):
        return 0
    return _SUBNORMAL_LIFT if max(map(abs, ys)) < _MIN_NORMAL else 0


def recency_mean(ys: Sequence[float], decay: float) -> float:
    """Recency-weighted mean: the newest (last) value has weight 1 and
    each older one ``decay`` times the next."""
    total = weighted = 0.0
    weight = 1.0
    for y in reversed(ys):
        total += weight
        weighted += weight * y
        weight *= decay
    mean = weighted / total
    if abs(mean) < _MIN_NORMAL:
        lift = _subnormal_lift(ys)
        if lift:
            return ldexp(recency_mean([ldexp(y, lift) for y in ys], decay),
                         -lift)
    return mean


def weighted_line(xs: Sequence[float], ys: Sequence[float],
                  decay: float) -> Optional[Tuple[float, float]]:
    """Recency-weighted least-squares line ``y = intercept + slope * x``.

    The newest (last) point has weight 1 and each older one ``decay``
    times the next.  Closed form over Python floats: the first pass
    takes the weighted means, the second the centred sums
    ``Sxx = Σ w·dx²`` and ``Sxy = Σ w·dx·dy``; then ``slope = Sxy/Sxx``
    and ``intercept = ȳ − slope·x̄``.  Returns ``(intercept, slope)``, or
    ``None`` when ``Sxx`` is not positive: every *x* equal, or the
    points that differ weighted down to nothing by underflow.  Both
    coefficients are linear in *y*, so a window of subnormal values is
    solved lifted into the normal range and the coefficients lowered.
    """
    line = LineX.of(xs, decay)
    return None if line is None else line.solve(ys)


class LineX:
    """The *x* side of :func:`weighted_line`, shared by every *y* fitted
    against one set of points.

    It holds the weights, their sum, the weighted mean ``x̄``, each
    point's ``w·dx`` and ``Sxx = Σ w·dx·dx``.  :meth:`solve` adds a
    *y* column's half: ``ȳ``, ``Sxy = Σ w·dx·(y − ȳ)`` and the line.
    Each sum keeps the order and grouping :func:`weighted_line` has
    always used, so splitting the two halves moves no bit.
    """

    __slots__ = ("weights", "total", "mean_x", "wdx", "sxx")

    def __init__(self, weights: List[float], total: float, mean_x: float,
                 wdx: List[float], sxx: float):
        self.weights = weights
        self.total = total
        self.mean_x = mean_x
        self.wdx = wdx
        self.sxx = sxx

    @classmethod
    def of(cls, xs: Sequence[float], decay: float) -> Optional["LineX"]:
        """The *x* side for points *xs*, or ``None`` when ``Sxx`` is not
        positive (no line fits)."""
        weights = [decay ** age for age in range(len(xs) - 1, -1, -1)]
        total = sum(weights)
        mean_x = sum(w * x for w, x in zip(weights, xs)) / total
        wdx = []
        sxx = 0.0
        for w, x in zip(weights, xs):
            dx = x - mean_x
            w_dx = w * dx
            wdx.append(w_dx)
            sxx += w_dx * dx
        if sxx <= 0.0:
            return None
        return cls(weights, total, mean_x, wdx, sxx)

    def solve(self, ys: Sequence[float]) -> Tuple[float, float]:
        """``(intercept, slope)`` of the line through *ys*."""
        weights, total = self.weights, self.total
        mean_y = sum(w * y for w, y in zip(weights, ys)) / total
        # A window of subnormal values has a subnormal mean.
        lift = _subnormal_lift(ys) if abs(mean_y) < _MIN_NORMAL else 0
        if lift:
            ys = [ldexp(y, lift) for y in ys]
            mean_y = sum(w * y for w, y in zip(weights, ys)) / total
        sxy = 0.0
        for w_dx, y in zip(self.wdx, ys):
            sxy += w_dx * (y - mean_y)
        slope = sxy / self.sxx
        intercept = mean_y - slope * self.mean_x
        if lift:
            return ldexp(intercept, -lift), ldexp(slope, -lift)
        return intercept, slope


#: a :class:`_WindowFit` part not computed yet
_UNFITTED: Any = object()


class _WindowFit:
    """The *x* side of one refit of a window's rows (see
    :meth:`DemandWindow.line` and :meth:`DemandWindow.design`).  The
    rows fix which features varied, so a refit takes one path: one
    part is all it ever computes."""

    __slots__ = ("end", "n", "line", "design")

    def __init__(self, end: int, n: int):
        self.end = end
        self.n = n
        #: the :class:`LineX` of the one varying feature, or None
        self.line: Optional[LineX] = _UNFITTED
        #: (root weights, weighted design) for lstsq
        self.design: Tuple[Any, Any] = _UNFITTED


#: the stream key part a predictor's generic (bin-independent) models use
GENERIC = None


class DemandWindow:
    """The feature rows of one sample stream, shared by its models.

    Every model on a window reads the same newest rows; each keeps its
    own column of values and the number of the window's rows it has
    seen (``end``).  A model is *in sync* while its values are the
    window's newest rows; it may hold fewer values than the window has
    rows (a resource first seen mid-stream), and then reads only the
    newest of them.

    The first model to observe a sample (told apart by the
    :class:`~repro.predictors.logs.FeatureContext` stamp) appends its
    row; the rest find the stamp and add their value only.  A model that
    did not observe a sample its siblings did (an energy model skips
    concurrent samples, a resource appears only under some plans) has
    fallen behind.  The next append moves every such model to a
    window of its own, forked from the rows it had seen: the window
    keeps one row beyond ``limit`` and the runs before its last append
    for exactly that.  Models never fall more than one sample behind a
    window they are on, and no model reads a row it did not observe.

    A model holds its window; the window holds its members weakly, so
    the two make no reference cycle and an evicted model goes at once.
    """

    def __init__(self, names: Tuple[str, ...], decay: float, limit: int):
        self.names = names
        self.decay = decay
        self.limit = limit
        #: the newest rows, at most ``limit + 1`` of them
        self.rows: List[FeatureRow] = []
        #: rows appended since the window began
        self.pushed = 0
        #: the stamp of the sample appended last (None: no stamp)
        self.stamp: Optional[int] = None
        #: per feature, how many of the newest rows share the newest
        #: value (over every row appended, trimmed ones included) ...
        self.runs: Tuple[int, ...] = (0,) * len(names)
        #: ... and the same before the last append
        self.prev_runs: Tuple[int, ...] = self.runs
        self._members: List["weakref.ref[WindowedLinearModel]"] = []
        self._fit: Optional[_WindowFit] = None

    # -- rows ------------------------------------------------------------------------

    def append(self, stamp: Optional[int], row: FeatureRow) -> None:
        """Add one sample's row; call :meth:`release_laggers` first."""
        rows = self.rows
        last = rows[-1] if rows else row
        self.prev_runs = self.runs
        self.runs = tuple(run + 1 if new == old else 1
                          for new, old, run in zip(row, last, self.runs))
        rows.append(row)
        if len(rows) > self.limit + 1:
            del rows[0]
        self.pushed += 1
        self.stamp = stamp
        self._fit = None

    @property
    def members(self) -> List["WindowedLinearModel"]:
        """The live models on this window."""
        return [model for model in (ref() for ref in self._members)
                if model is not None]

    def join(self, model: "WindowedLinearModel") -> None:
        self._members.append(weakref.ref(model))

    def release_laggers(self) -> None:
        """Move the members that missed the newest row to a new window
        holding the rows they saw, and forget the members gone.

        Called before a new sample's row is appended: a member still
        short of the newest row then did not observe that sample.
        """
        pushed = self.pushed
        stay, behind = [], []
        for ref in self._members:
            model = ref()
            if model is None:
                continue
            if model._ys and model._end < pushed:
                behind.append(model)
            else:
                stay.append(ref)
        self._members = stay
        if not behind:
            return
        fork = DemandWindow(self.names, self.decay, self.limit)
        # Every member behind saw the rows up to the newest one.
        keep = max(len(model._ys) for model in behind)
        fork.rows = self.rows[len(self.rows) - 1 - keep:-1]
        fork.pushed = keep
        fork.runs = fork.prev_runs = self.prev_runs
        for model in behind:
            model._shared = fork
            model._end = keep
            fork.join(model)

    def rows_at(self, end: int, n: int) -> List[FeatureRow]:
        """The *n* rows that end where a member with ``end`` stands."""
        stop = end - (self.pushed - len(self.rows))
        return self.rows[stop - n:stop]

    def runs_at(self, end: int) -> Tuple[int, ...]:
        """The feature runs as a member with ``end`` saw them."""
        return self.runs if end == self.pushed else self.prev_runs

    # -- the x side of a refit -------------------------------------------------------------

    def _fit_at(self, end: int, n: int) -> _WindowFit:
        fit = self._fit
        if fit is None or fit.end != end or fit.n != n:
            fit = self._fit = _WindowFit(end, n)
        return fit

    def line(self, end: int, n: int, index: int) -> Optional[LineX]:
        """The line *x* side of the member's rows in feature *index*,
        the one that varied."""
        fit = self._fit_at(end, n)
        if fit.line is _UNFITTED:
            fit.line = LineX.of(
                [row[index] for row in self.rows_at(end, n)], self.decay)
        return fit.line

    def design(self, end: int, n: int) -> Tuple[Any, Any]:
        """The root weights and weighted design ``lstsq`` solves the
        member's rows with, the constant columns zeroed."""
        fit = self._fit_at(end, n)
        if fit.design is _UNFITTED:
            # Columns with no variance carry no information; zero them
            # so their whole effect routes through the intercept.  Left
            # in, the min-norm pseudo-inverse would split weight between
            # the constant column and the intercept, and a prediction at
            # any *other* value of that feature would extrapolate along
            # a slope the data never witnessed.
            import numpy as np

            k = len(self.names)
            # newest (index n-1) gets weight 1; oldest gets decay**(n-1)
            weights = self.decay ** np.arange(n - 1, -1, -1, dtype=float)
            design = np.ones((n, k + 1))
            xs = np.array(self.rows_at(end, n), dtype=float).reshape(n, k)
            constant = np.array([run >= n for run in self.runs_at(end)])
            if constant.any():
                xs = np.where(constant[None, :], 0.0, xs)
            design[:, 1:] = xs
            sw = np.sqrt(weights)
            fit.design = (sw, design * sw[:, None])
        return fit.design

    def __deepcopy__(self, memo: dict) -> "DemandWindow":
        # Rows are float tuples: a copy needs its own list, not its own
        # rows.  The cached x side is rebuilt on demand, and the copy's
        # members are the copies of the live members.
        clone = deepcopy_state(self, memo, rows=list, _fit=lambda fit: None,
                               _members=lambda refs: [])
        for model in self.members:
            clone.join(copy.deepcopy(model, memo))
        return clone

    def __repr__(self) -> str:
        return (f"<DemandWindow features={self.names} rows={len(self.rows)} "
                f"members={len(self._members)}>")


class WindowTable:
    """One predictor's demand windows, by sample stream.

    A stream is keyed ``(scope, bin)``: the data object a model is kept
    for (``None`` for the general models) and its bin's discrete key
    (:data:`GENERIC` for the bin-independent model).  A model created
    for a stream joins the window the stream's models share.  The table
    holds its windows weakly: a window lives as long as a model on it,
    so a data object's windows go when every resource's model of it
    has been evicted.  It also numbers the samples its predictor
    observes (:meth:`stamp`).
    """

    def __init__(self, names: Tuple[str, ...], decay: float, limit: int):
        self.names = names
        self.decay = decay
        self.limit = limit
        self._windows: "weakref.WeakValueDictionary[Hashable, DemandWindow]" = (
            weakref.WeakValueDictionary())
        self._stamps = 0

    def stamp(self) -> int:
        """A number no earlier sample of this predictor carries."""
        self._stamps += 1
        return self._stamps

    def window(self, stream: Hashable) -> DemandWindow:
        """The window models of *stream* share."""
        window = self._windows.get(stream)
        if window is None:
            window = DemandWindow(self.names, self.decay, self.limit)
            self._windows[stream] = window
        return window

    def __deepcopy__(self, memo: dict) -> "WindowTable":
        clone = WindowTable(self.names, self.decay, self.limit)
        memo[id(self)] = clone
        clone._stamps = self._stamps
        for stream, window in list(self._windows.items()):
            clone._windows[stream] = copy.deepcopy(window, memo)
        return clone


class WindowedLinearModel:
    """Incrementally updated weighted least-squares model of one value.

    Parameters
    ----------
    feature_names:
        Names of the continuous inputs, fixing the design-matrix order.
    decay:
        Per-sample geometric decay: the newest sample has weight 1, the
        one before it ``decay``, then ``decay**2``...  ``decay=1`` is
        ordinary least squares.
    window:
        Maximum retained samples; older ones are dropped (their weight
        would be negligible anyway).
    shared:
        The :class:`DemandWindow` of the stream this model observes,
        shared with its sibling models; by default a window of its own.
        Without features the model keeps no rows and no window.

    The values are raw doubles in an ``array('d')``: a model holds no
    float object, and every fit reads the same doubles a list of the
    observed floats would hold.  The model has no per-instance dict; it
    keeps a weak-reference slot for the window that lists it.
    """

    __slots__ = ("feature_names", "decay", "window", "_shared", "_ys", "_end",
                 "_intercept", "_slope", "_varying", "_coef", "_stale",
                 "__weakref__")

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200,
                 shared: Optional[DemandWindow] = None):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1]: {decay}")
        if window < 2:
            raise ValueError(f"window too small: {window}")
        self.feature_names: Tuple[str, ...] = tuple(feature_names)
        self.decay = decay
        self.window = window
        if not self.feature_names:
            shared = None
        elif shared is None:
            shared = DemandWindow(self.feature_names, decay, window)
        self._shared = shared
        if shared is not None:
            shared.join(self)
        self._ys = array("d")
        # How many of the window's rows this model has seen.
        self._end = 0
        # The fit: intercept + slope * the one varying feature, or just
        # the intercept (the weighted mean) when no feature varied ...
        self._intercept = 0.0
        self._slope = 0.0
        self._varying: Optional[str] = None
        # ... or [intercept, b_1..b_k] from lstsq, None on the paths above
        self._coef: Optional[np.ndarray] = None
        self._stale = True

    # -- updating -------------------------------------------------------------------

    def observe(self, features: Mapping[str, float], value: float) -> None:
        """Add one (features → value) observation.

        The row is the one :func:`~repro.predictors.logs.feature_row`
        returns: a :class:`~repro.predictors.logs.FeatureContext` built
        for this model's features hands over the row it carries, and
        its stamp tells whether a sibling on the window has added it.
        """
        window = self._shared
        if window is not None:
            stamp = (features.stamp if type(features) is FeatureContext
                     else None)
            if stamp is None or stamp != window.stamp:
                # The first on the window to observe this sample: it
                # adds the row, once the members that missed the last
                # sample (perhaps this one) have left for windows of
                # their own.
                window.release_laggers()
                window = self._shared
                window.append(stamp, feature_row(features, window.names))
            self._end = window.pushed
        self._ys.append(value)
        if len(self._ys) > self.window:
            del self._ys[0]
        self._stale = True

    @property
    def n_samples(self) -> int:
        return len(self._ys)

    @property
    def rows(self) -> List[FeatureRow]:
        """The feature rows of the values this model holds, oldest
        first (none without features)."""
        if self._shared is None:
            return []
        return self._shared.rows_at(self._end, len(self._ys))

    def __deepcopy__(self, memo: dict) -> "WindowedLinearModel":
        # A copy needs its own value array and coefficients.  The window
        # is copied through the memo, so siblings copied together share
        # one copy of it.
        return deepcopy_state(self, memo, _ys=copy.copy, _coef=copy.copy)

    # -- predicting ------------------------------------------------------------------

    def predict(self, features: Dict[str, float]) -> float:
        """Predict the value at *features*; raises if never trained."""
        if not self._ys:
            raise ValueError("model has no observations")
        if self._stale:
            self._refit()
        if self._coef is not None:
            import numpy as np

            x = np.array(
                [1.0] + [float(features.get(n, 0.0)) for n in self.feature_names]
            )
            prediction = float(x @ self._coef)
        elif self._varying is None:
            prediction = self._intercept
        else:
            prediction = self._intercept + self._slope * float(
                features.get(self._varying, 0.0))
        # Resource usage is non-negative by construction; a regression
        # extrapolating below zero is lying.  (max(prediction, 0.0),
        # keeping its -0.0 and NaN, without the call.)
        return 0.0 if prediction < 0.0 else prediction

    def unidentified_features(self) -> Tuple[str, ...]:
        """Features whose slope this data cannot pin down.

        A feature observed at a single value (every bin trained by a
        forced regimen sees each input exactly once or twice) carries
        no slope information; its effect routes through the intercept
        and the model predicts *flat* along it.  Callers holding a
        better-trained sibling model (the binned predictor's generic
        model) use this to know which directions to borrow.
        """
        n = len(self._ys)
        if not n or self._shared is None:
            return ()
        return tuple(name for name, run
                     in zip(self.feature_names, self._shared.runs_at(self._end))
                     if run >= n)

    def feature_value(self, name: str) -> float:
        """The most recent observed value of feature *name*."""
        column = self.feature_names.index(name)
        if not self._ys:
            raise ValueError("model has no observations")
        return self._shared.rows_at(self._end, 1)[0][column]

    def weighted_mean(self) -> float:
        """Recency-weighted mean of observed values (feature-free view)."""
        if not self._ys:
            raise ValueError("model has no observations")
        return recency_mean(self._ys, self.decay)

    # -- internals --------------------------------------------------------------------

    def _refit(self) -> None:
        """Fit the window; :meth:`predict` calls it when it is stale."""
        self._coef = None
        n = len(self._ys)
        window = self._shared
        # A feature varied iff its run is shorter than the window.
        varying = ([] if window is None else
                   [i for i, run in enumerate(window.runs_at(self._end))
                    if run < n])
        if not varying:
            # With every feature column zeroed (see DemandWindow.design),
            # the intercept-only least-squares fit is the weighted mean.
            self._intercept, self._varying = self.weighted_mean(), None
            self._stale = False
            return
        if len(varying) == 1:
            index = varying[0]
            line = window.line(self._end, n, index)
            if line is not None:
                self._intercept, self._slope = line.solve(self._ys)
                self._varying = self.feature_names[index]
                self._stale = False
                return
        import numpy as np

        sw, weighted_design = window.design(self._end, n)
        weighted_y = np.array(self._ys) * sw
        coef, *_ = np.linalg.lstsq(weighted_design, weighted_y, rcond=None)
        self._coef = coef
        self._stale = False

    def __repr__(self) -> str:
        return (f"<WindowedLinearModel features={self.feature_names} "
                f"n={self.n_samples}>")


class EWMAModel:
    """Exponentially weighted moving average of a scalar.

    The building block of the file-access-likelihood predictor: each
    file's access indicator (1 accessed / 0 not) feeds an EWMA whose
    current value *is* the access probability estimate.
    """

    def __init__(self, alpha: float = 0.3, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = alpha
        self._value = initial
        self._prior = initial
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if self._value is None:
            self._value = value
        else:
            self._value += self.alpha * (value - self._value)
        self._count += 1

    @property
    def value(self) -> float:
        if self._value is None:
            raise ValueError("EWMA has no observations")
        return self._value

    @property
    def n_samples(self) -> int:
        """Actual observations fed through :meth:`observe`.

        An optimistic ``initial=`` seed is a *prior*, not history — it
        must not inflate this count (see :attr:`n_prior`).
        """
        return self._count

    @property
    def n_prior(self) -> int:
        """1 when the model was seeded with ``initial=``, else 0."""
        return 0 if self._prior is None else 1
