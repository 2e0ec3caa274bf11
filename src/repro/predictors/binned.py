"""Binned prediction over discrete variables.

"The default predictor uses binning to model discrete variables: it
maintains a separate prediction for each possible discrete value.  The
default predictor also maintains a generic prediction that is independent
of any discrete variable — this prediction is used whenever a specific
combination of discrete variables has not yet been encountered"
(paper §3.4).

:class:`BinnedLinearPredictor` keys a family of
:class:`~repro.predictors.linear.RecencyWeightedLinearModel` instances by
the tuple of discrete values (fidelity point + execution plan), each
regressing the resource on the continuous input parameters, plus one
generic fallback model trained on everything.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Sequence, Tuple

from ..copying import deepcopy_state
from .linear import RecencyWeightedLinearModel
from .logs import canonical_discrete_value

DiscreteKey = Tuple[Tuple[str, Any], ...]


def discrete_key(discrete: Dict[str, Any]) -> DiscreteKey:
    """Canonical hashable key for a discrete-variable assignment.

    Values are normalized through
    :func:`~repro.predictors.logs.canonical_discrete_value`, so a key
    built from live (possibly tuple-valued) fidelity values equals the
    key rebuilt from the JSON usage log — the bins a predictor relearns
    from disk are the same bins it trained in memory.
    """
    return tuple(sorted(
        (k, canonical_discrete_value(v)) for k, v in discrete.items()
    ))


class BinnedLinearPredictor:
    """Per-bin recency-weighted linear models with a generic fallback."""

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200):
        self.feature_names = tuple(feature_names)
        self.decay = decay
        self.window = window
        self._bins: Dict[DiscreteKey, RecencyWeightedLinearModel] = {}
        self._generic = self._new_model()

    def _new_model(self) -> RecencyWeightedLinearModel:
        return RecencyWeightedLinearModel(
            self.feature_names, decay=self.decay, window=self.window
        )

    # -- updating -------------------------------------------------------------------

    def observe(self, discrete: Dict[str, Any],
                continuous: Dict[str, float], value: float) -> None:
        key = discrete_key(discrete)
        model = self._bins.get(key)
        if model is None:
            model = self._new_model()
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
        model = self._bins.get(discrete_key(discrete))
        if model is None or model.n_samples == 0:
            return self._generic.predict(continuous)
        prediction = model.predict(continuous)
        blind = model.unidentified_features()
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
        model = self._bins.get(discrete_key(discrete))
        return model is not None and model.n_samples > 0

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
