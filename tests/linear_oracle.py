"""The per-model recency-weighted regression, kept as a reference model.

This is :class:`~repro.predictors.linear.WindowedLinearModel` as it was
before demand windows were shared: every model keeps its own copy of
its feature rows (``_xs``), its own trim and its own feature runs, and
fits with its own copy of :func:`weighted_line` and
:func:`recency_mean`.  The shipping model keeps the rows of one sample
stream once, in a :class:`~repro.predictors.linear.DemandWindow` its
sibling models share, and computes a refit's *x* side once for all of
them.  The two must predict the same floats, bit for bit, and this
module is how that is proven rather than assumed:
``tests/property/test_window_equivalence.py`` drives a predictor's
shared windows and one of these per model with the same samples and
compares every prediction by ``repr``.

It lives under ``tests/`` because nothing in the shipping package uses
it: it is an oracle, not an alternative.
"""

from __future__ import annotations

import copy
import sys
from math import ldexp
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.copying import deepcopy_state
from repro.predictors.logs import FeatureRow, feature_row

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
    weights = [decay ** age for age in range(len(ys) - 1, -1, -1)]
    total = sum(weights)
    mean_x = sum(w * x for w, x in zip(weights, xs)) / total
    mean_y = sum(w * y for w, y in zip(weights, ys)) / total
    # A window of subnormal values has a subnormal mean.
    lift = _subnormal_lift(ys) if abs(mean_y) < _MIN_NORMAL else 0
    if lift:
        ys = [ldexp(y, lift) for y in ys]
        mean_y = sum(w * y for w, y in zip(weights, ys)) / total
    sxx = sxy = 0.0
    for w, x, y in zip(weights, xs, ys):
        dx = x - mean_x
        sxx += w * dx * dx
        sxy += w * dx * (y - mean_y)
    if sxx <= 0.0:
        return None
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    if lift:
        return ldexp(intercept, -lift), ldexp(slope, -lift)
    return intercept, slope


class RecencyWeightedLinearModel:
    """Incrementally updated weighted least-squares model.

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
    """

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1]: {decay}")
        if window < 2:
            raise ValueError(f"window too small: {window}")
        self.feature_names: Tuple[str, ...] = tuple(feature_names)
        self.decay = decay
        self.window = window
        self._xs: List[FeatureRow] = []
        self._ys: List[float] = []
        # The fit: intercept + slope * the one varying feature, or just
        # the intercept (the weighted mean) when no feature varied ...
        self._intercept = 0.0
        self._slope = 0.0
        self._varying: Optional[str] = None
        # ... or [intercept, b_1..b_k] from lstsq, None on the paths above
        self._coef: Optional[np.ndarray] = None
        # Per feature, how many of the newest samples share the newest
        # value; the feature is constant iff its run covers the window.
        self._runs: Tuple[int, ...] = (0,) * len(self.feature_names)
        self._stale = True

    # -- updating -------------------------------------------------------------------

    def observe(self, features: Mapping[str, float], value: float) -> None:
        """Add one (features → value) observation.

        The model keeps the row :func:`~repro.predictors.logs.feature_row`
        returns: a :class:`~repro.predictors.logs.FeatureContext` built
        for this model's features hands over the row it carries.
        """
        if self.feature_names:
            x = feature_row(features, self.feature_names)
            last = self._xs[-1] if self._xs else x
            self._runs = tuple(run + 1 if new == old else 1
                               for new, old, run in zip(x, last, self._runs))
            # Without features the fit is the weighted mean of the
            # values: the model keeps no rows.
            self._xs.append(x)
        self._ys.append(float(value))
        if len(self._ys) > self.window:
            drop = len(self._ys) - self.window
            del self._xs[:drop]
            del self._ys[:drop]
        self._stale = True

    @property
    def n_samples(self) -> int:
        return len(self._ys)

    def __deepcopy__(self, memo: dict) -> "RecencyWeightedLinearModel":
        # Samples are float tuples and floats: a copy needs its own lists
        # and coefficients, not its own samples.
        return deepcopy_state(self, memo, _xs=list, _ys=list,
                              _coef=copy.copy)

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
        if not n:
            return ()
        return tuple(name for name, run
                     in zip(self.feature_names, self._runs) if run >= n)

    def feature_value(self, name: str) -> float:
        """The most recent observed value of feature *name*."""
        column = self.feature_names.index(name)
        if not self._xs:
            raise ValueError("model has no observations")
        return self._xs[-1][column]

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
        # A feature varied iff its run is shorter than the window.
        varying = [i for i, run in enumerate(self._runs) if run < n]
        if not varying:
            # With every feature column zeroed (see below), the
            # intercept-only least-squares fit is the weighted mean.
            self._intercept, self._varying = self.weighted_mean(), None
            self._stale = False
            return
        if len(varying) == 1:
            index = varying[0]
            line = weighted_line([x[index] for x in self._xs], self._ys,
                                 self.decay)
            if line is not None:
                self._intercept, self._slope = line
                self._varying = self.feature_names[index]
                self._stale = False
                return
        # Columns with no variance carry no information; zero them so
        # their whole effect routes through the intercept.  Left in, the
        # min-norm pseudo-inverse would split weight between the constant
        # column and the intercept, and a prediction at any *other* value
        # of that feature would extrapolate along a slope the data never
        # witnessed.
        import numpy as np

        k = len(self.feature_names)
        y = np.array(self._ys)
        # newest (index n-1) gets weight 1; oldest gets decay**(n-1)
        weights = self.decay ** np.arange(n - 1, -1, -1, dtype=float)
        design = np.ones((n, k + 1))
        xs = np.array(self._xs, dtype=float).reshape(n, k)
        constant = np.array([run >= n for run in self._runs])
        if constant.any():
            xs = np.where(constant[None, :], 0.0, xs)
        design[:, 1:] = xs
        sw = np.sqrt(weights)
        weighted_design = design * sw[:, None]
        weighted_y = y * sw
        coef, *_ = np.linalg.lstsq(weighted_design, weighted_y, rcond=None)
        self._coef = coef
        self._stale = False

    def __repr__(self) -> str:
        return (f"<RecencyWeightedLinearModel features={self.feature_names} "
                f"n={self.n_samples}>")
