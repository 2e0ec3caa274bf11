"""Inline suppression comments: ``# spectra: noqa[RULE]``.

Suppressions are *scoped by construction*: a bare ``# spectra: noqa``
silences every rule on its line, while ``# spectra: noqa[SPC004]`` (or a
comma list, ``# spectra: noqa[SPC004,SPC006]``) silences only the named
rules.  The reviewer-facing convention is to always name the rule and
append a justification after an em-dash::

    if exponent == 0.0:  # spectra: noqa[SPC004] -- exact sentinel, not a measurement

Comments are located with :mod:`tokenize` so a ``# spectra: noqa``
*inside a string literal* is never honored; if tokenization fails on a
file the AST already parsed (theoretically impossible, practically a
tokenizer/compiler disagreement), the scanner degrades to a line-regex
scan rather than dropping suppressions on the floor.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet

#: Sentinel meaning "every rule is suppressed on this line".
ALL_RULES: FrozenSet[str] = frozenset({"*"})

_PATTERN = re.compile(
    r"#\s*spectra:\s*noqa(?:\s*\[\s*([A-Za-z0-9_,\s]+?)\s*\])?",
)


def _parse_comment(comment: str) -> FrozenSet[str]:
    """Rule codes a single comment suppresses; empty if not a noqa."""
    match = _PATTERN.search(comment)
    if match is None:
        return frozenset()
    codes = match.group(1)
    if codes is None:
        return ALL_RULES
    return frozenset(code.strip().upper()
                     for code in codes.split(",") if code.strip())


def suppressed_lines(text: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> set of suppressed rule codes (or ALL_RULES)."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            codes = _parse_comment(token.string)
            if codes:
                suppressions[token.start[0]] = codes
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Fallback: regex over raw lines.  May match inside strings, so
        # it over-suppresses in the worst case — preferable to silently
        # re-arming suppressions the author wrote.
        for lineno, line in enumerate(text.splitlines(), start=1):
            codes = _parse_comment(line)
            if codes:
                suppressions[lineno] = codes
    return suppressions


def is_suppressed(suppressions: Dict[int, FrozenSet[str]],
                  line: int, rule: str) -> bool:
    codes = suppressions.get(line)
    if not codes:
        return False
    return codes is ALL_RULES or "*" in codes or rule.upper() in codes
