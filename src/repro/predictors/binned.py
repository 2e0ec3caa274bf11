"""Binned prediction over discrete variables.

"The default predictor uses binning to model discrete variables: it
maintains a separate prediction for each possible discrete value.  The
default predictor also maintains a generic prediction that is independent
of any discrete variable — this prediction is used whenever a specific
combination of discrete variables has not yet been encountered"
(paper §3.4).

:class:`BinnedLinearPredictor` keys a family of
:class:`~repro.predictors.linear.WindowedLinearModel` instances by
the tuple of discrete values (fidelity point + execution plan), each
regressing the resource on the continuous input parameters, plus one
generic fallback model trained on everything.  Given its predictor's
:class:`~repro.predictors.linear.WindowTable` and a data-object scope,
each model joins the demand window its stream shares with the other
resources' models of that scope and bin.

Bins are keyed by :func:`~repro.predictors.logs.discrete_key`.  The
contexts the predictor stack passes down are
:class:`~repro.predictors.logs.DiscreteContext` mappings that carry
their key, built once per alternative or per logged sample, so a bin
lookup reads the key instead of canonicalizing and sorting the mapping
on every observation and prediction.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional, Sequence

from ..copying import deepcopy_state
from .linear import GENERIC, WindowedLinearModel, WindowTable
from .logs import DiscreteKey, discrete_key


class BinnedLinearPredictor:
    """Per-bin recency-weighted linear models with a generic fallback."""

    __slots__ = ("feature_names", "decay", "window", "_windows", "_scope",
                 "_bins", "_generic")

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200,
                 windows: Optional[WindowTable] = None,
                 scope: Optional[str] = None):
        self.feature_names = tuple(feature_names)
        self.decay = decay
        self.window = window
        # The table the models find their streams' windows in, and the
        # data object they are kept for (None: the general models).
        self._windows = windows if self.feature_names else None
        self._scope = scope
        self._bins: Dict[DiscreteKey, WindowedLinearModel] = {}
        self._generic = self._new_model(GENERIC)

    def _new_model(self, bin_key: Optional[DiscreteKey]) -> WindowedLinearModel:
        shared = None
        if self._windows is not None:
            shared = self._windows.window((self._scope, bin_key))
        return WindowedLinearModel(
            self.feature_names, decay=self.decay, window=self.window,
            shared=shared,
        )

    # -- updating -------------------------------------------------------------------

    def observe(self, discrete: Dict[str, Any],
                continuous: Dict[str, float], value: float) -> None:
        key = discrete_key(discrete)
        model = self._bins.get(key)
        if model is None:
            model = self._new_model(key)
            self._bins[key] = model
        model.observe(continuous, value)
        self._generic.observe(continuous, value)

    # -- predicting ------------------------------------------------------------------

    def predict(self, discrete: Dict[str, Any],
                continuous: Dict[str, float]) -> float:
        """Bin-specific prediction, or the generic model for unseen bins.

        A bin trained at a single value of some input parameter (a
        forced round-robin regimen gives every bin only a sample or two)
        cannot know how demand responds to that parameter — alone it
        would predict flat and, probed at a larger input, understate
        demand.  The generic model has seen every bin's samples and
        *does* know the response, so such predictions anchor at the
        bin's level and borrow the generic model's slope along each
        direction the bin never varied: bin(x) shifted by
        ``generic(x) - generic(x with the blind features pinned at the
        bin's observed value)``.  A fully-identified bin gets a zero
        shift and behaves exactly as before.

        Raises ``ValueError`` if *nothing* has ever been observed — the
        caller (the Spectra client) treats that as "no model yet" and
        falls back to exploration.
        """
        # A bin exists once observed, so its model has samples.
        model = self._bins.get(discrete_key(discrete))
        if model is None:
            return self._generic.predict(continuous)
        prediction = model.predict(continuous)
        blind = model.unidentified_features() if self.feature_names else ()
        if blind:
            reference = dict(continuous)
            for name in blind:
                reference[name] = model.feature_value(name)
            if reference != dict(continuous):
                shift = (self._generic.predict(continuous)
                         - self._generic.predict(reference))
                prediction = max(prediction + shift, 0.0)
        return prediction

    def has_bin(self, discrete: Dict[str, Any]) -> bool:
        return discrete_key(discrete) in self._bins

    @property
    def n_samples(self) -> int:
        return self._generic.n_samples

    @property
    def n_bins(self) -> int:
        return len(self._bins)

    def __deepcopy__(self, memo: dict) -> "BinnedLinearPredictor":
        # Bin keys are tuples of primitives: share them, copy the models.
        return deepcopy_state(self, memo, _bins=lambda bins: {
            key: copy.deepcopy(model, memo) for key, model in bins.items()
        })

    def __repr__(self) -> str:
        return (f"<BinnedLinearPredictor bins={self.n_bins} "
                f"n={self.n_samples} features={self.feature_names}>")
