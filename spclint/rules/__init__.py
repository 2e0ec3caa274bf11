"""The SPC rule pack.

Importing this package registers every rule with
:data:`spclint.core.RULE_REGISTRY`; the engine and CLI only ever
see the registry, so adding a rule is one new module plus one import
line here.

| Code   | Invariant                                                  |
|--------|------------------------------------------------------------|
| SPC001 | no host reads in simulated code: wall clock, sleeps,       |
|        | environment, host identity, secret-grade entropy           |
| SPC002 | no module-level (unseeded, global-state) randomness        |
| SPC004 | no exact float ==/!= on utility/energy/time values         |
| SPC005 | no private attributes assigned in __init__ but never read  |
| SPC006 | no silent broad excepts on hot paths (bare excepts are     |
|        | ruff's E722)                                               |
| SPC102 | spans open as `with` items, chained into `.end()`, or      |
|        | handed on; `start_all` has a `stop_all` or hands its       |
|        | recording on                                               |
| SPC105 | every `noqa` waiver still suppresses a finding (the engine |
|        | runs this audit after the other rules on each file)        |

Every rule checks one file at a time.
"""

from . import (  # noqa: F401  (imported for registration side effect)
    deadattrs,
    exceptions,
    floatcmp,
    lifecycle,
    randomness,
    suppress,
    wallclock,
)

__all__ = [
    "deadattrs",
    "exceptions",
    "floatcmp",
    "lifecycle",
    "randomness",
    "suppress",
    "wallclock",
]
