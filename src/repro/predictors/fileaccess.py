"""File-access-likelihood prediction.

"The file access predictor maintains a numerical prediction of access
likelihood for each file that may be accessed.  When updating each file's
model, the predictor assigns the value of 1 to a file access, and the
value of 0 when a file is not accessed.  Each resulting prediction thus
represents the likelihood that a given file will be accessed" (§3.5).

Spectra uses the predictions two ways:

* **cache-miss cost**: expected bytes to fetch = Σ over *uncached* files
  of size × likelihood, divided by the Coda fetch rate → time;
* **consistency**: any file with non-zero access likelihood that has
  buffered modifications must be reintegrated before remote execution.

Likelihoods are modelled per discrete bin (fidelity/plan can change
which files an operation touches — e.g. the reduced vocabulary never
reads the full language model), with a bin-independent fallback, and
optionally per data object (each Latex document has its own input set).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from .linear import EWMAModel
from .logs import DiscreteKey, discrete_key


class _AccessModel:
    """Likelihood-per-file EWMAs for one context (bin or generic)."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self._files: Dict[str, EWMAModel] = {}
        self._sizes: Dict[str, int] = {}
        self.n_operations = 0

    def observe(self, accessed: Dict[str, int]) -> None:
        """Record one operation's accesses: {path: size} for touched files."""
        self.n_operations += 1
        for path, size in accessed.items():
            self._sizes[path] = size
            model = self._files.get(path)
            if model is None:
                # Seed optimistically at 1.0: a file seen once is assumed
                # likely until contrary evidence arrives.  The triggering
                # access is still a real observation — feed it through so
                # n_samples counts it (the prior alone is not history);
                # observing 1.0 at value 1.0 leaves the estimate at 1.0.
                model = EWMAModel(self.alpha, initial=1.0)
                self._files[path] = model
            model.observe(1.0)
        for path, model in self._files.items():
            if path not in accessed:
                model.observe(0.0)

    def likelihoods(self) -> List[Tuple[str, int, float]]:
        return [
            (path, self._sizes[path], self._files[path].value)
            for path in sorted(self._files)
        ]


class FileAccessPredictor:
    """Predicts which files an operation will touch, with likelihoods."""

    #: Likelihoods below this round to "will not be accessed".
    NEGLIGIBLE = 0.01

    def __init__(self, alpha: float = 0.3, max_objects: int = 32):
        self.alpha = alpha
        self.max_objects = max_objects
        self._bins: Dict[DiscreteKey, _AccessModel] = {}
        self._generic = _AccessModel(alpha)
        self._per_object: "OrderedDict[str, _AccessModel]" = OrderedDict()

    # -- updating -------------------------------------------------------------------

    def observe(self, discrete: Dict[str, Any], accessed: Dict[str, int],
                data_object: Optional[str] = None) -> None:
        """Record one completed operation's file accesses."""
        key = discrete_key(discrete)
        model = self._bins.get(key)
        if model is None:
            model = _AccessModel(self.alpha)
            self._bins[key] = model
        model.observe(accessed)
        self._generic.observe(accessed)
        if data_object is not None:
            obj_model = self._per_object.get(data_object)
            if obj_model is None:
                obj_model = _AccessModel(self.alpha)
                self._per_object[data_object] = obj_model
                if len(self._per_object) > self.max_objects:
                    self._per_object.popitem(last=False)
            else:
                self._per_object.move_to_end(data_object)
            obj_model.observe(accessed)

    # -- predicting ------------------------------------------------------------------

    def predict(self, discrete: Dict[str, Any],
                data_object: Optional[str] = None
                ) -> List[Tuple[str, int, float]]:
        """Predicted ``(path, size, likelihood)`` list for an operation.

        Resolution order mirrors the numeric predictors: data-specific
        model if cached, else the discrete bin, else the generic model.
        Entries below :attr:`NEGLIGIBLE` likelihood are dropped.
        """
        model = None
        if data_object is not None:
            model = self._per_object.get(data_object)
            if model is not None:
                self._per_object.move_to_end(data_object)
        if model is None or model.n_operations == 0:
            model = self._bins.get(discrete_key(discrete))
        if model is None or model.n_operations == 0:
            model = self._generic
        return [
            (path, size, likelihood)
            for path, size, likelihood in model.likelihoods()
            if likelihood >= self.NEGLIGIBLE
        ]

    def expected_fetch_bytes(
        self,
        discrete: Dict[str, Any],
        cached_paths,
        data_object: Optional[str] = None,
    ) -> float:
        """Expected bytes fetched from file servers for one execution.

        "For each uncached file, it estimates the number of bytes of data
        that must be fetched from file servers by multiplying the file
        size by the predicted access likelihood" (§3.5).
        """
        cached = set(cached_paths)
        return sum(
            size * likelihood
            for path, size, likelihood in self.predict(discrete, data_object)
            if path not in cached
        )

    def likely_files(self, discrete: Dict[str, Any],
                     data_object: Optional[str] = None) -> List[str]:
        """Paths with non-negligible access likelihood (consistency set)."""
        return [path for path, _size, _lk in self.predict(discrete, data_object)]

    @property
    def n_operations(self) -> int:
        return self._generic.n_operations
