"""Self-tuning demand prediction: logs, models, and the predictor stack."""

from .._lazy import lazy_exports
from .base import DemandModel, NoModelError, OperationDemandPredictor
from .binned import BinnedLinearPredictor
from .datamodel import DataSpecificPredictor
from .fileaccess import FileAccessPredictor
from .linear import EWMAModel, WindowedLinearModel
from .logs import (
    DiscreteContext,
    FeatureContext,
    UsageLog,
    UsageSample,
    canonical_discrete_value,
    discrete_key,
)

# not on a run's path: the persisted store (and the hashlib it needs)
__getattr__, __dir__, _lazy_names = lazy_exports(__name__, globals(), {
    "store": (
        "STORE_SCHEMA",
        "PredictorStore",
        "PredictorStoreError",
        "StoredPredictor",
        "document_digest",
        "merge_logs",
        "rebuild_predictor",
    ),
})

__all__ = [
    "BinnedLinearPredictor",
    "DataSpecificPredictor",
    "DemandModel",
    "DiscreteContext",
    "EWMAModel",
    "FeatureContext",
    "FileAccessPredictor",
    "NoModelError",
    "OperationDemandPredictor",
    "UsageLog",
    "UsageSample",
    "WindowedLinearModel",
    "canonical_discrete_value",
    "discrete_key",
    *_lazy_names,
]
