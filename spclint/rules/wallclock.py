"""SPC001 — no host reads inside the simulator.

Every timing and energy figure this reproduction reports is an integral
over **simulated** time (``Simulator.now``); a single ``time.time()``
stamp or ``time.sleep()`` pause splices nondeterministic host time into
that ledger and silently corrupts results without failing any test.
The same holds for anything else the host answers differently from run
to run or machine to machine: the environment, the host's identity,
secret-grade entropy.  The rule bans all of it at the call or read site
inside ``src/repro``, so it needs no call graph: whatever a decision
path could reach in the package is banned where it sits.  Simulated
components take their clock from the sim kernel (or a bound telemetry
clock) and their inputs from the scenario spec, never from the host.
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

#: Dotted call paths that read the process environment or host identity —
#: nondeterministic across machines and runs even with the clock tamed.
ENV_CALLS = frozenset({
    "os.getenv", "os.getenvb", "os.urandom", "os.cpu_count",
    "os.getloadavg", "os.getpid",
    "platform.node", "platform.platform", "platform.machine",
    "platform.processor", "platform.system",
    "socket.gethostname", "socket.getfqdn", "socket.gethostbyname",
    "getpass.getuser",
    "uuid.uuid1", "uuid.uuid4",
})

#: Dotted attributes whose every read has the same property.
ENV_ATTRS = frozenset({"os.environ", "sys.argv"})

#: Module prefixes whose calls are secret-grade entropy.
ENTROPY_PREFIXES = ("secrets.",)


def _describe_call(path: str) -> str:
    if path in BANNED_CALLS:
        return (f"wall-clock call {path}() — all time must come from "
                f"the sim kernel clock (Simulator.now)")
    if path in ENV_CALLS:
        return (f"environment read {path}() — a run's inputs come from "
                f"its scenario spec, not the host")
    if path.startswith(ENTROPY_PREFIXES):
        return (f"entropy call {path}() — draw from a seeded "
                f"random.Random instead")
    return ""


@register_rule
class WallClockRule(Rule):
    code = "SPC001"
    name = "no-host-reads"
    description = ("wall-clock, environment and entropy reads are banned "
                   "in simulated code; use the sim kernel clock and "
                   "the scenario spec")
    scope = ("src/repro",)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                path = resolve_call_path(node.func, aliases)
                message = _describe_call(path) if path else ""
                if message:
                    yield self.violation(source, node, message)
            elif isinstance(node, (ast.Attribute, ast.Name)) \
                    and isinstance(node.ctx, ast.Load):
                # `from os import environ` makes the bare name a read
                # too; a chain (`os.environ.get`) holds exactly one
                # node that resolves to the banned attribute itself.
                path = resolve_call_path(node, aliases)
                if path in ENV_ATTRS:
                    yield self.violation(
                        source, node,
                        f"environment read {path} — a run's inputs come "
                        f"from its scenario spec, not the host",
                    )
