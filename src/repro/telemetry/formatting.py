"""Shared rendering helpers for decision forensics and explanations.

These used to live privately inside ``core/explain.py``; the trace CLI
and the per-handle explainer now render from the same vocabulary.
"""

from __future__ import annotations

import math
from typing import List, Sequence


def fmt_seconds(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if value < 0.1:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def fmt_rate(cps: float) -> str:
    return f"{cps / 1e6:.0f} Mcycles/s"


def fmt_joules(value: float) -> str:
    return f"{value:.2f}J"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 indent: str = "  ") -> List[str]:
    """Left-align the first column, right-align the rest."""
    if not rows:
        return [indent + "(none)"]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells) -> str:
        parts = [str(cells[0]).ljust(widths[0])]
        parts += [str(c).rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return indent + "  ".join(parts).rstrip()

    lines = [fmt_row(headers),
             indent + "  ".join("-" * w for w in widths)]
    lines.extend(fmt_row(row) for row in rows)
    return lines
