"""Data-specific resource models.

"For some applications, resource usage depends heavily upon the specific
data on which an operation is performed ... Spectra's default predictor
anticipates this relationship with data-specific models of resource
usage.  Applications such as Latex associate each operation with the name
of a data object.  The default predictor maintains a LRU cache of the
most recent data objects.  When asked to predict future demand, the
predictor uses a data-specific model ... Otherwise, it uses the more
general, data-independent model" (paper §3.4).

A 14-page and a 123-page document get separate models; an unseen document
falls back to the general model trained on all documents.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence

from .binned import BinnedLinearPredictor
from .linear import WindowTable


class DataSpecificPredictor:
    """LRU cache of per-data-object predictors over a general fallback.

    Given its predictor's :class:`~repro.predictors.linear.WindowTable`,
    its models share their streams' demand windows with the other
    resources' models (``windows``).  The per-object cache is created
    with the first data object observed: an operation without data
    objects keeps none.
    """

    __slots__ = ("feature_names", "decay", "window", "max_objects",
                 "_windows", "_general", "_per_object")

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200,
                 max_objects: int = 32,
                 windows: Optional[WindowTable] = None):
        if max_objects < 1:
            raise ValueError(f"max_objects must be >= 1: {max_objects}")
        self.feature_names = tuple(feature_names)
        self.decay = decay
        self.window = window
        self.max_objects = max_objects
        self._windows = windows
        self._general = BinnedLinearPredictor(feature_names, decay, window,
                                              windows)
        self._per_object: Optional[
            "OrderedDict[str, BinnedLinearPredictor]"] = None

    # -- updating -------------------------------------------------------------------

    def observe(self, discrete: Dict[str, Any], continuous: Dict[str, float],
                value: float, data_object: Optional[str] = None) -> None:
        self._general.observe(discrete, continuous, value)
        if data_object is None:
            return
        per_object = self._per_object
        if per_object is None:
            per_object = self._per_object = OrderedDict()
        model = per_object.get(data_object)
        if model is None:
            model = BinnedLinearPredictor(
                self.feature_names, self.decay, self.window, self._windows,
                scope=data_object,
            )
            per_object[data_object] = model
            if len(per_object) > self.max_objects:
                per_object.popitem(last=False)
        else:
            per_object.move_to_end(data_object)
        model.observe(discrete, continuous, value)

    # -- predicting ------------------------------------------------------------------

    def predict(self, discrete: Dict[str, Any], continuous: Dict[str, float],
                data_object: Optional[str] = None) -> float:
        """Data-specific prediction when a cached model exists, else general."""
        if data_object is not None and self._per_object is not None:
            model = self._per_object.get(data_object)
            if model is not None and model.has_bin(discrete):
                self._per_object.move_to_end(data_object)
                return model.predict(discrete, continuous)
        return self._general.predict(discrete, continuous)

    def has_bin(self, discrete: Dict[str, Any]) -> bool:
        """Has this exact discrete combination been observed?"""
        return self._general.has_bin(discrete)

    def has_data_model(self, data_object: str) -> bool:
        return data_object in (self._per_object or ())

    @property
    def n_objects(self) -> int:
        return len(self._per_object or ())

    def __repr__(self) -> str:
        return (f"<DataSpecificPredictor objects={self.n_objects} "
                f"general_n={self._general.n_samples}>")
