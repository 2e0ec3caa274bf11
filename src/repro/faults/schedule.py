"""Fault schedules: what breaks, when, and for how long.

A schedule is pure data — no clocks, no randomness at apply time — so the
same schedule applied to the same simulation produces byte-identical
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

#: target is a host name for server faults, an (a, b) host pair for link
#: faults.
Target = Union[str, Tuple[str, str]]

#: every fault action the injector knows
ACTIONS = frozenset({
    "crash_server", "restart_server",
    "partition", "heal",
    "degrade_bandwidth", "restore_bandwidth",
    "spike_latency", "restore_latency",
})

#: actions that take an (a, b) pair target rather than a host name
PAIR_ACTIONS = frozenset({
    "partition", "heal",
    "degrade_bandwidth", "restore_bandwidth",
    "spike_latency", "restore_latency",
})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *action* on *target* at sim-time *at_s*.

    ``value`` parameterizes the action: the bandwidth fraction kept for
    ``degrade_bandwidth`` (0.0 = jammed), the added seconds for
    ``spike_latency``; unused otherwise.
    """

    at_s: float
    action: str
    target: Target
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"fault time must be non-negative: {self.at_s}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        is_pair = isinstance(self.target, tuple)
        if is_pair != (self.action in PAIR_ACTIONS):
            kind = "an (a, b) host pair" if self.action in PAIR_ACTIONS \
                else "a host name"
            raise ValueError(
                f"action {self.action!r} takes {kind}, got {self.target!r}"
            )
        if self.action == "degrade_bandwidth":
            if self.value is None or not 0.0 <= self.value < 1.0:
                raise ValueError(
                    f"degrade_bandwidth needs a kept-fraction in [0, 1): "
                    f"{self.value!r}"
                )
        if self.action == "spike_latency":
            if self.value is None or self.value <= 0.0:
                raise ValueError(
                    f"spike_latency needs positive added seconds: "
                    f"{self.value!r}"
                )


class FaultSchedule:
    """An ordered, immutable sequence of :class:`FaultEvent`."""

    def __init__(self, events: Sequence[FaultEvent]):
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_s, e.action, str(e.target)))
        )

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def shifted(self, offset_s: float) -> "FaultSchedule":
        """The same schedule, every event *offset_s* later."""
        return FaultSchedule([
            FaultEvent(e.at_s + offset_s, e.action, e.target, e.value)
            for e in self._events
        ])
