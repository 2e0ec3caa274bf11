"""Violation reporters: text for humans, JSON for machines.

Both render the same :class:`~repro.analysis.core.Violation` list; the
JSON form is stable (sorted keys, schema documented here) so CI and
editor integrations can parse it without guessing:

.. code-block:: json

    {
      "violations": [{"rule": "...", "path": "...", "line": 1,
                      "col": 0, "message": "..."}],
      "counts": {"SPC001": 2},
      "total": 2,
      "files_checked": 40
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List

from .core import Violation


def render_text(violations: List[Violation], files_checked: int = 0) -> str:
    """One finding per line plus a per-rule summary footer."""
    lines = [violation.render() for violation in violations]
    if violations:
        counts = Counter(violation.rule for violation in violations)
        summary = ", ".join(f"{rule}×{count}"
                            for rule, count in sorted(counts.items()))
        lines.append(f"{len(violations)} violation"
                     f"{'s' if len(violations) != 1 else ''} ({summary})")
    else:
        suffix = f" across {files_checked} files" if files_checked else ""
        lines.append(f"clean{suffix}: no sim-safety violations")
    return "\n".join(lines)


def render_json(violations: List[Violation], files_checked: int = 0) -> str:
    counts: Dict[str, int] = dict(
        Counter(violation.rule for violation in violations)
    )
    payload = {
        "violations": [violation.to_dict() for violation in violations],
        "counts": counts,
        "total": len(violations),
        "files_checked": files_checked,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


REPORTERS = {
    "text": render_text,
    "json": render_json,
}
