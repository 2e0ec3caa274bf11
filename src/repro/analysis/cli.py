"""``repro lint`` — run the sim-safety rule pack from the shell.

Exit codes follow linter convention: ``0`` clean, ``1`` violations
found, ``2`` usage error.  Examples::

    python -m repro lint src/repro tests                  # per-file rules
    python -m repro lint src/repro tests benchmarks examples \\
        --deep                                            # the CI gate
    python -m repro lint src/repro --format json          # machine-readable
    python -m repro lint src --select SPC001,SPC004
    python -m repro lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import all_rules, is_project_rule
from .engine import LintConfig, analyze_paths, iter_python_files
from .reporters import REPORTERS


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach lint options; shared by the subcommand and the tests."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=sorted(REPORTERS),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--deep", action="store_true",
                        help="additionally run the whole-program SPC1xx "
                             "pack (call-graph taint, CFG lifecycle "
                             "paths, telemetry contract)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe the rule pack and exit")


def list_rules() -> str:
    lines = ["The Spectra sim-safety rule pack:", ""]
    for rule in all_rules():
        scope = ", ".join(rule.default_scope) or "everywhere"
        deep = "  [--deep]" if is_project_rule(rule) else ""
        lines.append(f"  {rule.code}  {rule.name}{deep}")
        lines.append(f"         {rule.description}")
        lines.append(f"         scope: {scope}")
    lines.append("")
    lines.append("suppress inline with: # spectra: noqa[CODE] -- justification")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        print(list_rules())
        return 0

    config = LintConfig(select=_split_codes(args.select),
                        ignore=_split_codes(args.ignore) or ())
    try:
        per_file = config.active_rules()
        project = config.active_project_rules()
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if not args.deep and args.select and project and not per_file:
        # --select SPC101 without --deep would lint nothing and exit 0;
        # that silence would defeat the gate, so it's a usage error.
        codes = ", ".join(rule.code for rule in project)
        print(f"repro lint: {codes} are whole-program rules; add --deep",
              file=sys.stderr)
        return 2

    files = list(iter_python_files(args.paths))
    if not files:
        print(f"no Python files under: {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    violations = analyze_paths(args.paths, config, deep=args.deep)
    print(REPORTERS[args.format](violations, files_checked=len(files)))
    return 1 if violations else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static sim-safety analysis for the Spectra repo.",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
