"""SPC001 — no wall-clock reads or real sleeps inside the simulator.

Every timing and energy figure this reproduction reports is an integral
over **simulated** time (``Simulator.now``); a single ``time.time()``
stamp or ``time.sleep()`` pause splices nondeterministic host time into
that ledger and silently corrupts results without failing any test.
The rule bans the standard library's clock surface inside ``src/repro``
— simulated components must take their clock from the sim kernel (or a
bound telemetry clock), never from the host.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import (
    Rule,
    SourceFile,
    Violation,
    register_rule,
    resolve_call_path,
)

#: Fully-resolved call paths that read the host clock or block on it.
BANNED_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register_rule
class WallClockRule(Rule):
    code = "SPC001"
    name = "no-wall-clock"
    description = ("wall-clock reads and real sleeps are banned in "
                   "simulated code; use the sim kernel clock")
    scope = ("src/repro",)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node.func, aliases)
            if path is None:
                continue
            # `from datetime import datetime` resolves bare
            # `datetime.now` through the alias map already; also catch
            # the method spelled on an un-aliased import.
            if path in BANNED_CALLS:
                yield self.violation(
                    source, node,
                    f"wall-clock call {path}() — all time must come "
                    f"from the sim kernel clock (Simulator.now)",
                )
