"""Whole-program flow analysis: the ``--deep`` layer of ``repro lint``.

Where the SPC0xx pack checks one file at a time, this package builds a
project-wide view — a module/def/call-edge index
(:mod:`.project`), per-function control-flow graphs with exception
edges (:mod:`.cfg`) — and runs interprocedural passes over it:

| Code   | Invariant                                                     |
|--------|---------------------------------------------------------------|
| SPC101 | no decision-path entry point transitively reaches a           |
|        | nondeterminism source (wall clock, global RNG, environment)   |
| SPC102 | span/monitor begins end on *every* CFG path, exception        |
|        | edges included; never-ended and dropped spans, and            |
|        | `start_all` with no `stop_all`                                |
| SPC103 | acquire/release-style resource pairs close on every CFG path  |
| SPC104 | telemetry counter/span names at call sites resolve against    |
|        | the registered-name contract (`repro.telemetry.names`)        |
| SPC105 | `# spectra: noqa[CODE]` waivers that suppress nothing are     |
|        | themselves findings (dead waivers can't accumulate)           |

Importing this package registers the pack with the shared rule
registry; the rules only run under ``repro lint --deep``.
"""

from . import (  # noqa: F401  (imported for registration side effect)
    contracts,
    lifecycle,
    suppress,
    taint,
)
from .cfg import CFG, build_cfg
from .project import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = [
    "CFG",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_cfg",
    "contracts",
    "lifecycle",
    "suppress",
    "taint",
]
