"""Spectra — a reproduction of "Balancing Performance, Energy, and
Quality in Pervasive Computing" (Flinn, Park, Satyanarayanan, ICDCS 2002).

Spectra is a self-tuning remote-execution system for battery-powered
pervasive-computing clients: it monitors resource supply and demand and
decides, per operation, how and where application components execute —
balancing performance, energy conservation, and application quality.

Package map
-----------

==================  ====================================================
``repro.sim``       deterministic discrete-event simulation kernel
``repro.hosts``     CPU / machine models (Itsy, ThinkPads, servers)
``repro.energy``    power metering, batteries, goal-directed adaptation
``repro.network``   links, shared wireless media, transfer logging
``repro.rpc``       RPC transport and the service programming model
``repro.coda``      Coda-like distributed file system
``repro.odyssey``   fidelity specifications
``repro.monitors``  resource monitors (supply prediction + observation)
``repro.predictors`` self-tuning demand models
``repro.solver``    heuristic and exhaustive placement search
``repro.core``      the Spectra client/server and Figure-1 API
``repro.apps``      Janus / Latex / Pangloss-Lite workload models
``repro.baselines`` comparison policies (always-local, RPF, oracle...)
``repro.scenarios`` declarative worlds: the one world builder, the
                    paper's two testbeds as specs, seeded traffic
``repro.experiments`` harness regenerating every table and figure
==================  ====================================================
"""

__version__ = "1.0.0"

from .core import (  # noqa: F401  (re-exported public API)
    Alternative,
    ExecutionPlan,
    OperationReport,
    OperationSpec,
    SpectraClient,
    SpectraNode,
    SpectraServer,
)
from .sim import Simulator  # noqa: F401

__all__ = [
    "Alternative",
    "ExecutionPlan",
    "OperationReport",
    "OperationSpec",
    "Simulator",
    "SpectraClient",
    "SpectraNode",
    "SpectraServer",
    "__version__",
]
