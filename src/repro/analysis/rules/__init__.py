"""The SPC rule pack.

Importing this package registers every rule with
:data:`repro.analysis.core.RULE_REGISTRY`; the engine and CLI only ever
see the registry, so adding a rule is one new module plus one import
line here.

| Code   | Invariant                                                  |
|--------|------------------------------------------------------------|
| SPC001 | no wall-clock reads / real sleeps in simulated code        |
| SPC002 | no module-level (unseeded, global-state) randomness        |
| SPC004 | no exact float ==/!= on utility/energy/time values         |
| SPC005 | no private attributes assigned in __init__ but never read  |
| SPC006 | no bare excepts; no silent broad excepts on hot paths      |
| SPC007 | no import-time numpy: import it where it is used           |

The whole-program SPC1xx pack (``repro lint --deep``) lives in
:mod:`repro.analysis.flow` and registers through the same registry;
monitor/span lifecycle pairing is its SPC102.
"""

from . import (  # noqa: F401  (imported for registration side effect)
    deadattrs,
    exceptions,
    floatcmp,
    imports,
    randomness,
    wallclock,
)

__all__ = [
    "deadattrs",
    "exceptions",
    "floatcmp",
    "imports",
    "randomness",
    "wallclock",
]
