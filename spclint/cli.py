"""``python -m spclint`` — the sim-safety gate, run from the repo root.

With no arguments it sweeps :data:`~spclint.engine.DEFAULT_TARGETS`
(``src/repro tests benchmarks examples spclint``): every rule over one
parse of every file.  That invocation *is* the CI gate.  Positional
paths narrow the sweep; there are no options.

Exit codes follow linter convention: ``0`` clean, ``1`` violations
found, ``2`` usage error (an unknown option, or no Python files).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import List, Optional

from .core import Violation
from .engine import DEFAULT_TARGETS, analyze_paths, iter_python_files


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m spclint",
        description="Static sim-safety analysis for the Spectra repo.",
    )
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_TARGETS),
                        help="files or directories to lint (default: "
                             f"{' '.join(DEFAULT_TARGETS)})")
    args = parser.parse_args(argv)

    files = list(iter_python_files(args.paths))
    if not files:
        print(f"no Python files under: {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    violations = analyze_paths(files)
    print(render_text(violations, files_checked=len(files)))
    return 1 if violations else 0
