"""Deterministic discrete-event simulation kernel.

This package is the time substrate for the whole Spectra reproduction:
hosts, networks, batteries, the Coda file system, and the Spectra runtime
all advance through simulated seconds scheduled on one
:class:`~repro.sim.kernel.Simulator`.
"""

from .events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .kernel import Simulator, TimerHandle
from .resources import FairShareJob, FairShareResource

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "FairShareJob",
    "FairShareResource",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "TimerHandle",
    "Timeout",
]
