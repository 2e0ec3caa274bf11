"""Recency-weighted linear regression — the default numeric model.

"The default predictor uses linear regression to model continuous
variables.  It adjusts for changes in application behavior over time by
giving more recent samples a greater weight in its predictions"
(paper §3.4).

:class:`RecencyWeightedLinearModel` fits ``y ≈ a + Σ b_i · x_i`` by
weighted least squares, with sample weights decaying geometrically in
recency order.  A feature-free model's least-squares fit is its
weighted mean, computed in closed form; models with features solve
with ``lstsq``.  Degenerate designs (no samples with a given feature
spread, collinear features) fall back gracefully: a constant feature
contributes through the intercept, and an empty model predicts the
recency-weighted mean of whatever it has seen.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..copying import deepcopy_state


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
        self._xs: List[Tuple[float, ...]] = []
        self._ys: List[float] = []
        self._coef: Optional[np.ndarray] = None  # [intercept, b_1..b_k]
        self._mean = 0.0  # the fit when there are no features
        self._constant: Tuple[bool, ...] = (False,) * len(self.feature_names)
        self._stale = True

    # -- updating -------------------------------------------------------------------

    def observe(self, features: Dict[str, float], value: float) -> None:
        """Add one (features → value) observation."""
        x = tuple(float(features.get(name, 0.0)) for name in self.feature_names)
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
        self._refit()
        if not self.feature_names:
            prediction = self._mean
        else:
            assert self._coef is not None
            x = np.array(
                [1.0] + [float(features.get(n, 0.0)) for n in self.feature_names]
            )
            prediction = float(x @ self._coef)
        # Resource usage is non-negative by construction; a regression
        # extrapolating below zero is lying.
        return max(prediction, 0.0)

    def unidentified_features(self) -> Tuple[str, ...]:
        """Features whose slope this data cannot pin down.

        A feature observed at a single value (every bin trained by a
        forced regimen sees each input exactly once or twice) carries
        no slope information; its effect routes through the intercept
        and the model predicts *flat* along it.  Callers holding a
        better-trained sibling model (the binned predictor's generic
        model) use this to know which directions to borrow.
        """
        if not self._ys or not self.feature_names:
            return ()
        self._refit()
        return tuple(name for name, flat
                     in zip(self.feature_names, self._constant) if flat)

    def feature_value(self, name: str) -> float:
        """The most recent observed value of feature *name*."""
        if not self._xs:
            raise ValueError("model has no observations")
        return self._xs[-1][self.feature_names.index(name)]

    def weighted_mean(self) -> float:
        """Recency-weighted mean of observed values (feature-free view)."""
        if not self._ys:
            raise ValueError("model has no observations")
        total = weighted = 0.0
        weight = 1.0
        for y in reversed(self._ys):
            total += weight
            weighted += weight * y
            weight *= self.decay
        return weighted / total

    # -- internals --------------------------------------------------------------------

    def _weights(self) -> np.ndarray:
        n = len(self._ys)
        # newest (index n-1) gets weight 1; oldest gets decay**(n-1)
        return self.decay ** np.arange(n - 1, -1, -1, dtype=float)

    def _refit(self) -> None:
        if not self._stale:
            return
        if not self.feature_names:
            # The intercept-only least-squares fit is the weighted mean.
            self._mean = self.weighted_mean()
            self._stale = False
            return
        n = len(self._ys)
        k = len(self.feature_names)
        y = np.array(self._ys)
        weights = self._weights()
        design = np.ones((n, k + 1))
        if k:
            xs = np.array(self._xs, dtype=float).reshape(n, k)
            # Columns with no variance carry no information; zero them so
            # their whole effect routes through the intercept.  Left in,
            # the min-norm pseudo-inverse would split weight between the
            # constant column and the intercept, and a prediction at any
            # *other* value of that feature would extrapolate along a
            # slope the data never witnessed.
            constant = xs.max(axis=0) == xs.min(axis=0)
            self._constant = tuple(bool(flag) for flag in constant)
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
