"""The per-operation demand predictor stack.

When an application calls ``register_fidelity``, "Spectra creates
predictors for each resource type.  Each predictor reads the logged
resource usage data and generates a parameterized model of demand ...
When subsequent operations are performed, Spectra updates the in-memory
model in addition to logging resource usage" (paper §3.4).

:class:`OperationDemandPredictor` bundles, for one registered operation:

* a :class:`~repro.predictors.datamodel.DataSpecificPredictor` per
  numeric resource (CPU cycles, bytes, RPC count, energy), binned on
  fidelity + plan and regressed on the input parameters;
* a :class:`~repro.predictors.fileaccess.FileAccessPredictor` for the
  file working set; and
* the backing :class:`~repro.predictors.logs.UsageLog`.

Applications may override any resource's model via
:meth:`set_custom_predictor` — the paper's "interface through which
application-specific predictors may be specified."
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence

from .binned import discrete_key
from .datamodel import DataSpecificPredictor
from .fileaccess import FileAccessPredictor
from .logs import UsageLog, UsageSample


class DemandModel(Protocol):
    """Interface application-specific predictors must satisfy."""

    def observe(self, discrete: Dict[str, Any], continuous: Dict[str, float],
                value: float, data_object: Optional[str] = None) -> None: ...

    def predict(self, discrete: Dict[str, Any], continuous: Dict[str, float],
                data_object: Optional[str] = None) -> float: ...


class NoModelError(LookupError):
    """A prediction was requested for a resource never yet observed."""


class OperationDemandPredictor:
    """All demand models for one registered operation."""

    #: prediction-memo entries before the cache is wholesale dropped —
    #: a guard against unbounded feature-value diversity, not an LRU.
    PREDICT_CACHE_MAX = 4096

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200,
                 log: Optional[UsageLog] = None):
        self.feature_names = tuple(feature_names)
        self.decay = decay
        self.window = window
        self.log = log if log is not None else UsageLog()
        self._models: Dict[str, DemandModel] = {}
        self._custom: Dict[str, DemandModel] = {}
        self.files = FileAccessPredictor()
        # Demand is a pure function of (model state, context): models
        # change only through observe_operation / set_custom_predictor,
        # both of which bump _version and drop this memo.  The solver
        # asks for the same handful of (resource, bin, features) demands
        # on every decision, so steady-state predictions become dict
        # hits instead of bin lookups + regression evaluations.
        self._version = 0
        self._predict_cache: Dict[tuple, Any] = {}
        # Rebuild in-memory models from an inherited log ("each predictor
        # reads the logged resource usage data").
        for sample in self.log:
            self._absorb(sample, record=False)

    # -- model management -------------------------------------------------------

    def set_custom_predictor(self, resource: str, model: DemandModel) -> None:
        """Install an application-specific model for *resource*.

        Like the built-in models, a custom model's ``predict`` must be a
        pure function of its ``observe`` history — predictions are
        memoized between observations.
        """
        self._custom[resource] = model
        self._invalidate_predictions()

    def _invalidate_predictions(self) -> None:
        self._version += 1
        if self._predict_cache:
            self._predict_cache.clear()

    def _model_for(self, resource: str) -> DemandModel:
        if resource in self._custom:
            return self._custom[resource]
        model = self._models.get(resource)
        if model is None:
            model = DataSpecificPredictor(
                self.feature_names, decay=self.decay, window=self.window
            )
            self._models[resource] = model
        return model

    # -- updating ----------------------------------------------------------------

    def observe_operation(
        self,
        timestamp: float,
        discrete: Dict[str, Any],
        continuous: Dict[str, float],
        usage: Dict[str, float],
        file_accesses: Optional[Dict[str, int]] = None,
        data_object: Optional[str] = None,
        concurrent: bool = False,
        skip_energy_when_concurrent: bool = True,
    ) -> UsageSample:
        """Log one completed operation and update every model.

        Energy samples from concurrently executing operations are skipped
        (paper §3.3.3: "Spectra ignores data gathered from concurrently
        executing operations when ... predicting future energy needs").
        """
        sample = UsageSample.build(
            timestamp=timestamp,
            discrete=discrete,
            continuous=continuous,
            usage=usage,
            data_object=data_object,
            concurrent=concurrent,
            file_accesses=file_accesses,
        )
        self.log.append(sample)
        self._absorb(
            sample,
            record=True,
            skip_energy_when_concurrent=skip_energy_when_concurrent,
        )
        return sample

    def _absorb(self, sample: UsageSample, record: bool,
                skip_energy_when_concurrent: bool = True) -> None:
        self._invalidate_predictions()
        discrete = sample.discrete_dict()
        continuous = sample.continuous_dict()
        for resource, value in sample.usage_dict().items():
            if (sample.concurrent and skip_energy_when_concurrent
                    and resource.startswith("energy")):
                continue
            self._model_for(resource).observe(
                discrete, continuous, value, data_object=sample.data_object
            )
        if sample.file_accesses:
            self.files.observe(
                discrete, sample.file_accesses_dict(),
                data_object=sample.data_object,
            )

    # -- predicting ---------------------------------------------------------------

    def predict(self, resource: str, discrete: Dict[str, Any],
                continuous: Dict[str, float],
                data_object: Optional[str] = None) -> float:
        """Predicted demand for *resource* under the given context."""
        key = (resource, discrete_key(discrete),
               tuple(sorted(continuous.items())), data_object)
        cached = self._predict_cache.get(key)
        if cached is not None:
            if type(cached) is float:
                return cached
            raise NoModelError(cached[0])
        model = self._custom.get(resource) or self._models.get(resource)
        if model is None:
            # A never-observed resource stays model-less until observe()
            # creates its model, which invalidates the memo — cache this
            # miss too, or every solver search point rebuilds the
            # exception from scratch.
            message = f"no demand model for resource {resource!r} yet"
            self._remember(key, (message,))
            raise NoModelError(message)
        try:
            value = float(
                model.predict(discrete, continuous, data_object=data_object)
            )
        except ValueError as exc:
            # An untrained bin stays untrained until observe() fills it,
            # which invalidates the memo — cache the miss too.
            self._remember(key, (str(exc),))
            raise NoModelError(str(exc)) from exc
        self._remember(key, value)
        return value

    def _remember(self, key: tuple, entry: Any) -> None:
        if len(self._predict_cache) >= self.PREDICT_CACHE_MAX:
            self._predict_cache.clear()
        self._predict_cache[key] = entry

    def has_bin(self, resource: str, discrete: Dict[str, Any]) -> bool:
        """Has *resource* been observed under this exact discrete context?"""
        model = self._custom.get(resource) or self._models.get(resource)
        if model is None:
            return False
        has_bin = getattr(model, "has_bin", None)
        if has_bin is None:
            return True  # custom models without bin tracking: assume yes
        return bool(has_bin(discrete))

    def can_predict(self, resource: str) -> bool:
        model = self._custom.get(resource) or self._models.get(resource)
        if model is None:
            return False
        has_any = getattr(model, "has_any_model", None)
        return bool(has_any()) if has_any is not None else True

    def resources(self) -> List[str]:
        return sorted(set(self._models) | set(self._custom))
