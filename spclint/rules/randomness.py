"""SPC002 — no unseeded (module-level, global-state) randomness.

The solver breaks utility ties with a seeded RNG, predictors self-tune
from history, and the experiment harness replays scenarios bit-for-bit.
Drawing from the *module-level* ``random`` (or ``numpy.random``) state
couples a run's outcome to import order, test ordering, and whatever
other code touched the global generator — the canonical source of
"works on my machine" divergence.  Randomness must flow from an
explicitly constructed, explicitly seeded generator object
(``random.Random(seed)``, ``numpy.random.default_rng(seed)``) owned by
the component that draws from it.
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

#: Constructors of explicit generator objects — the sanctioned surface.
ALLOWED = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.Generator", "numpy.random.default_rng",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.MT19937", "numpy.random.Philox",
    "numpy.random.SFC64", "numpy.random.BitGenerator",
})

#: Module prefixes whose remaining callables are the global-state API.
BANNED_PREFIXES = ("random.", "numpy.random.")


@register_rule
class UnseededRandomnessRule(Rule):
    code = "SPC002"
    name = "no-unseeded-randomness"
    description = ("module-level random.* / numpy.random.* calls are "
                   "banned; draw from an explicitly seeded generator")
    scope = ()          # global state is poison everywhere

    def check(self, source: SourceFile) -> Iterator[Violation]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node.func, aliases)
            if path is None or path in ALLOWED:
                continue
            if any(path.startswith(prefix) for prefix in BANNED_PREFIXES):
                yield self.violation(
                    source, node,
                    f"global-state randomness {path}() — construct an "
                    f"explicitly seeded random.Random / "
                    f"numpy.random.default_rng instead",
                )
