"""Sim-safety static analysis: the invariants behind reproducibility.

Spectra's results are trustworthy only if every run is deterministic —
all time from the simulated kernel clock, all randomness from seeded
generators, every monitor/span lifecycle closed on every path.  This
stdlib-only package, kept outside the ``repro`` system it guards,
mechanically enforces those invariants with a small AST rule engine
(:mod:`.engine`), a registry of per-file SPC rules (:mod:`.rules`), a
whole-program SPC1xx pack (:mod:`.flow`), and the ``python -m spclint``
gate (:mod:`.cli`).

Typical embedding::

    from spclint import analyze_paths
    violations = analyze_paths()          # the gate's targets

Inline suppression::

    value = legacy()  # spectra: noqa[SPC004] -- exact sentinel by design
"""

from .core import (
    INTERNAL_CODE,
    RULE_REGISTRY,
    SYNTAX_CODE,
    Rule,
    Violation,
    all_rules,
    register_rule,
)
from .engine import (
    Project,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from . import rules  # noqa: F401  (registers the SPC rule pack)
from . import flow  # noqa: F401  (registers the SPC1xx whole-program pack)

__all__ = [
    "INTERNAL_CODE",
    "RULE_REGISTRY",
    "SYNTAX_CODE",
    "Rule",
    "Violation",
    "all_rules",
    "register_rule",
    "Project",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
]
