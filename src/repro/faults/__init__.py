"""Deterministic fault injection for chaos-testing the Spectra runtime.

A pervasive-computing environment is defined by change: servers crash,
wireless links partition and heal, bandwidth collapses under interference
(paper §1: resources "may change dramatically during operation").  This
package injects exactly those changes into a running simulation — on a
deterministic, seeded, sim-time schedule — so the runtime's recovery
machinery (RPC retry, mid-operation failover) can be exercised and its
degradation measured reproducibly.

:mod:`~repro.faults.schedule`
    :class:`FaultEvent` / :class:`FaultSchedule` — the declarative
    what/when.

:mod:`~repro.faults.injector`
    :class:`FaultInjector` — applies events to a live
    :class:`~repro.network.Network` and its Spectra servers, tracking
    enough state to undo each fault (restart, heal, restore).

Scenario timelines (:mod:`repro.scenarios.timeline`) compile onto this
pair, including events anchored inside a measured operation.
"""

from .injector import AppliedFault, FaultInjector
from .schedule import FaultEvent, FaultSchedule

__all__ = [
    "AppliedFault",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
]
