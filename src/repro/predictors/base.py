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

Every operation updates the models, so :meth:`~OperationDemandPredictor.predict`
keeps no memo of its own: it asks the model each time.  The solver's
per-solve table (``solver/heuristic.py``) is the one prediction memo on
the decision path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence

from .datamodel import DataSpecificPredictor
from .fileaccess import FileAccessPredictor
from .linear import WindowTable
from .logs import FeatureContext, UsageLog, UsageSample, feature_row


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

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200,
                 log: Optional[UsageLog] = None):
        self.feature_names = tuple(feature_names)
        self.decay = decay
        self.window = window
        self.log = log if log is not None else UsageLog()
        self._models: Dict[str, DemandModel] = {}
        self._custom: Dict[str, DemandModel] = {}
        # The demand windows the built-in models share, one per sample
        # stream; without features the models keep no rows to share.
        self._windows = (WindowTable(self.feature_names, decay, window)
                         if self.feature_names else None)
        self.files = FileAccessPredictor()
        # Rebuild in-memory models from an inherited log ("each predictor
        # reads the logged resource usage data").
        for sample in self.log:
            self._absorb(sample, record=False)

    # -- model management -------------------------------------------------------

    def set_custom_predictor(self, resource: str, model: DemandModel) -> None:
        """Install an application-specific model for *resource*.

        From now on it receives every observation of *resource* and
        answers every prediction for it, in place of the built-in
        model.  ``predict`` is asked afresh on every call; a
        ``ValueError`` it raises (an untrained bin, say) reaches the
        caller as :class:`NoModelError`.
        """
        self._custom[resource] = model

    def _model(self, resource: str) -> Optional[DemandModel]:
        """The custom model for *resource*, else the built-in one, if any."""
        model = self._custom.get(resource) if self._custom else None
        return self._models.get(resource) if model is None else model

    def _model_for(self, resource: str) -> DemandModel:
        model = self._model(resource)
        if model is None:
            model = DataSpecificPredictor(
                self.feature_names, decay=self.decay, window=self.window,
                windows=self._windows,
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
            parts=self.log.parts,
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
        discrete = sample.discrete_dict()
        continuous = sample.continuous_dict()
        if self._windows is not None:
            # One row per distinct feature vector, kept once by each
            # demand window the sample reaches; the stamp tells the
            # window's models this sample from the one before.
            continuous = FeatureContext(
                continuous, self.feature_names,
                self.log.parts.share(feature_row(continuous,
                                                 self.feature_names)),
                self._windows.stamp())
        for resource, value in zip(sample.usage_names, sample.usage_values):
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
        model = self._model(resource)
        if model is None:
            raise NoModelError(f"no demand model for resource {resource!r} yet")
        try:
            return float(
                model.predict(discrete, continuous, data_object=data_object)
            )
        except ValueError as exc:
            raise NoModelError(str(exc)) from exc

    def has_bin(self, resource: str, discrete: Dict[str, Any]) -> bool:
        """Has *resource* been observed under this exact discrete context?"""
        model = self._model(resource)
        if model is None:
            return False
        has_bin = getattr(model, "has_bin", None)
        if has_bin is None:
            return True  # custom models without bin tracking: assume yes
        return bool(has_bin(discrete))

    def resources(self) -> List[str]:
        return sorted(set(self._models) | set(self._custom))
