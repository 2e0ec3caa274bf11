"""Spectra core: the paper's primary contribution.

The application-facing API (Figure 1 of the paper) lives on
:class:`~repro.core.client.SpectraClient`; machines are assembled with
:class:`~repro.core.api.SpectraNode`.
"""

from .._lazy import lazy_exports
from .api import SpectraNode
from .client import (
    NoFeasibleAlternativeError,
    OperationHandle,
    OperationReport,
    RegisteredOperation,
    SpectraClient,
)
from .estimate import DemandEstimator
from .operation import (
    OperationSpec,
    inverse_latency,
    ramp_latency,
)
from .overhead import OverheadModel
from .plans import Alternative, ExecutionPlan, local_plan, remote_plan
from .server import CONTROL_SERVICE, SpectraServer
from .utility import (
    AdditiveUtility,
    AlternativePrediction,
    DefaultUtility,
    ENERGY_EXPONENT_K,
)

# not on a run's path: decision forensics, the server config file
__getattr__, __dir__, _lazy_names = lazy_exports(__name__, globals(), {
    "explain": ("explain_decision", "explain_trace"),
    "registry": ("ServerConfig",),
})

__all__ = [
    "AdditiveUtility",
    "Alternative",
    "AlternativePrediction",
    "CONTROL_SERVICE",
    "DefaultUtility",
    "DemandEstimator",
    "ENERGY_EXPONENT_K",
    "ExecutionPlan",
    "NoFeasibleAlternativeError",
    "OperationHandle",
    "OperationReport",
    "OperationSpec",
    "OverheadModel",
    "RegisteredOperation",
    "SpectraClient",
    "SpectraNode",
    "SpectraServer",
    "inverse_latency",
    "local_plan",
    "ramp_latency",
    "remote_plan",
    *_lazy_names,
]
