"""Whole-program flow analysis: the SPC1xx half of every sweep.

Where the SPC0xx pack checks one file at a time, this package builds a
project-wide view — a module/def/call-edge index
(:mod:`.project`), per-function control-flow graphs with exception
edges (:mod:`.cfg`) — and runs two passes over it:

| Code   | Invariant                                                     |
|--------|---------------------------------------------------------------|
| SPC102 | span/monitor begins end on *every* CFG path, exception        |
|        | edges included (a call into a project function that can       |
|        | raise is one); never-ended and dropped spans, and             |
|        | `start_all` with no `stop_all`                                |
| SPC105 | `# spectra: noqa[CODE]` waivers that suppress nothing are     |
|        | themselves findings (dead waivers can't accumulate)           |

Importing this package registers the pack with the shared rule
registry; every :func:`~spclint.engine.analyze_paths` sweep runs it
after the per-file rules, over the same parse of every file.
"""

from . import (  # noqa: F401  (imported for registration side effect)
    lifecycle,
    suppress,
)
from .cfg import CFG, build_cfg
from .project import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = [
    "CFG",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_cfg",
    "lifecycle",
    "suppress",
]
