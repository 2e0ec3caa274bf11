"""Deterministic discrete-event simulation kernel.

This package is the time substrate for the whole Spectra reproduction:
hosts, networks, batteries, the Coda file system, and the Spectra runtime
all advance through simulated seconds scheduled on one
:class:`~repro.sim.kernel.Simulator`.
"""

from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from .kernel import Simulator, TimerHandle
from .process import Process
from .resources import FairShareJob, FairShareResource, Mutex, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "FairShareJob",
    "FairShareResource",
    "Interrupt",
    "Mutex",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "TimerHandle",
    "Timeout",
]
