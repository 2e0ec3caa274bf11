"""SPC004 — no exact ``==``/``!=`` on utility/energy/time floats.

Spectra's decisions are comparisons over accumulated floating-point
quantities: utilities multiply per-metric terms, energy integrates a
power draw over simulated time, durations difference two clock reads.
Exact equality on such values encodes an assumption (`this sum is
bit-identical to that literal`) that holds only until an innocent
refactor reassociates the arithmetic — and then a branch silently
flips.  Compare with tolerance (``math.isclose``), order
(``<=``/``>=``), or classification (``math.isinf``/``math.isnan``).

The rule fires on ``==``/``!=`` where either side is a float literal,
a ``float(...)`` construction, or where both sides are *measurement
names* (identifiers matching the utility/energy/time vocabulary).
Integer-literal comparisons never fire — ints are exact, and sentinel
compares like ``retries == 0`` are fine.  ``assert`` statements are
exempt (tests pin exact expected values on purpose).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..core import (
    Rule,
    RuleConfig,
    SourceFile,
    Violation,
    register_rule,
)

#: Identifier vocabulary of measured, accumulated float quantities.
MEASUREMENT_NAME = re.compile(
    r"(utility|energy|joule|time|duration|elapsed|latency|deadline"
    r"|second|power|watt|charge|battery|bandwidth|throughput)",
    re.IGNORECASE,
)


def _name_hint(node: ast.AST) -> Optional[str]:
    """The identifier a comparison operand is morally named by."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _name_hint(node.func)
    if isinstance(node, ast.UnaryOp):
        return _name_hint(node.operand)
    return None


def _is_float_valued(node: ast.AST) -> bool:
    """Float literal or explicit float(...) construction."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_float_valued(node.operand)
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def _is_measurement(node: ast.AST) -> bool:
    hint = _name_hint(node)
    return hint is not None and MEASUREMENT_NAME.search(hint) is not None


@register_rule
class FloatEqualityRule(Rule):
    code = "SPC004"
    name = "no-float-equality"
    description = ("exact ==/!= on utility/energy/time floats; use "
                   "math.isclose, ordering, or isinf/isnan")
    default_scope = ("src/repro",)
    default_exclude = ("src/repro/analysis",)

    def check(self, source: SourceFile,
              config: RuleConfig) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            floats = [op for op in operands if _is_float_valued(op)]
            measured = [op for op in operands if _is_measurement(op)]
            if not floats and len(measured) < 2:
                continue
            if self._in_assert(node, source.parents):
                continue
            subject = (_name_hint(measured[0]) if measured
                       else _name_hint(operands[0])) or "value"
            yield self.violation(
                source, node,
                f"exact float equality on {subject!r} — use math.isclose, "
                f"an ordering comparison, or math.isinf/isnan",
            )

    @staticmethod
    def _in_assert(node: ast.AST, parents) -> bool:
        while node is not None:
            if isinstance(node, ast.Assert):
                return True
            node = parents.get(node)
        return False
