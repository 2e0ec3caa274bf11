"""Self-tuning demand prediction: logs, models, and the predictor stack."""

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
from .store import (
    STORE_SCHEMA,
    PredictorStore,
    PredictorStoreError,
    StoredPredictor,
    document_digest,
    merge_logs,
    rebuild_predictor,
)

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
    "PredictorStore",
    "PredictorStoreError",
    "STORE_SCHEMA",
    "StoredPredictor",
    "UsageLog",
    "UsageSample",
    "WindowedLinearModel",
    "canonical_discrete_value",
    "discrete_key",
    "document_digest",
    "merge_logs",
    "rebuild_predictor",
]
