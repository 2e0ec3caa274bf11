"""Compile a scenario's environment timeline onto the fault machinery.

The spec's timeline speaks the environment's language — bandwidth ramps,
latency spikes, partitions, server churn, each with an optional end time
— and compiles down to the :class:`~repro.faults.FaultSchedule` /
:class:`~repro.faults.FaultInjector` pair PR 4 built: one inject event
plus (when ``until_s`` is set) the matching recovery event.  Reusing
that layer means scenario timelines inherit its guarantees for free:
idempotent application, in-flight transfer aborts on partition/crash,
a journal of what actually landed, and the ``faults.injected`` counter.
"""

from __future__ import annotations

from typing import List, Optional

from ..faults import FaultEvent, FaultSchedule
from .spec import (
    PAIR_TIMELINE_KINDS,
    TIMELINE_KINDS,
    ScenarioSpec,
    TimelineEventSpec,
)


def event_faults(entry: TimelineEventSpec, at_s: float,
                 until_s: Optional[float]) -> List[FaultEvent]:
    """*entry* as its inject event at *at_s*, plus the recovery at
    *until_s* when one is set."""
    inject, recover = TIMELINE_KINDS[entry.kind]
    target = (entry.pair_target if entry.kind in PAIR_TIMELINE_KINDS
              else entry.target)
    events = [FaultEvent(at_s, inject, target, entry.value)]
    if until_s is not None:
        events.append(FaultEvent(until_s, recover, target))
    return events


def compile_timeline(spec: ScenarioSpec) -> FaultSchedule:
    """The spec's clock-timed timeline as an installable fault schedule.

    Times in the schedule are offsets from the start of the measured
    phase; shift with :meth:`~repro.faults.FaultSchedule.shifted` before
    installing (the runner anchors them after training/settle).
    Anchored events are left out: the runner places each one when its
    operation starts.
    """
    events = []
    for entry in spec.timeline:
        if entry.anchor is None:
            events.extend(event_faults(entry, entry.at_s, entry.until_s))
    return FaultSchedule(events)
