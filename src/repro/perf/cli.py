"""The ``repro bench`` command: run the kernel suite, write and validate
``BENCH_kernel.json``.

``repro bench``
    Run the kernel suite and write ``BENCH_kernel.json`` to ``--output``
    (default: the repository root, where it is committed and diffed
    PR-over-PR).

``repro bench --quick``
    CI-sized run: fewer repeats.  Same schema.

``repro bench --check FILE [FILE ...]``
    Validate existing BENCH files against the ``spectra-bench/1``
    schema without running anything; exits 1 on the first bad file.
    This is what CI gates on — schema drift fails, timing noise never.

``repro bench --ratchet BENCH_kernel.json``
    Gate the fresh results against the committed document.  The
    committed document is read and validated before the suite runs,
    and the fresh one is written only when the gate passes, so
    ``--output`` may name the ratchet's own directory without the run
    gating against (or overwriting the floor with) its own output.
    The ratchet is deliberately host-portable: the hard gates are
    *dimensionless* (the contended-medium speedup ratio, which divides
    out the host), while absolute events/sec — which vary several-fold
    across CI runners — only fail on an order-of-magnitude collapse.
    See :data:`RATCHET_MIN_SPEEDUP`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List

from .kernel import run_kernel_suite
from .schema import SCHEMA, BenchSchemaError, validate_bench_doc, \
    validate_bench_file

#: the contended-medium speedup any host must clear — below this the
#: virtual-time scheduler has regressed toward the legacy O(n²) path
RATCHET_MIN_SPEEDUP = 3.0

#: fresh speedup may not fall below this fraction of the committed one
RATCHET_SPEEDUP_SLIP = 0.35

#: fresh events/sec may not fall below this fraction of the committed
#: figure — loose on purpose: it catches collapse, not host variance
RATCHET_RATE_SLIP = 0.10


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: fewer repeats")
    parser.add_argument("--output", default=".",
                        help="directory for BENCH_kernel.json "
                             "(default: repository root)")
    parser.add_argument("--quiet", action="store_true",
                        help="write files without printing the summary")
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        default=None,
                        help="validate existing bench files and exit; "
                             "runs nothing")
    parser.add_argument("--ratchet", metavar="FILE", default=None,
                        help="gate fresh results against this committed "
                             "BENCH_kernel.json (exit 1 on regression; "
                             "nothing is written then)")


def _document(quick: bool, benchmarks: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "suite": "kernel",
        "quick": quick,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "platform": sys.platform,
        "benchmarks": benchmarks,
    }


def ratchet_kernel(fresh: Dict[str, Any],
                   committed: Dict[str, Any]) -> List[str]:
    """Regression gates for the kernel suite; returns failure messages.

    The committed document is the floor the optimization must hold.
    Speedup is the primary gate because it is a ratio of two timings on
    the *same* host, so runner speed divides out; raw events/sec is
    gated only against collapse.
    """
    failures: List[str] = []
    fresh_cm = fresh["benchmarks"]["contended_medium"]
    committed_cm = committed["benchmarks"]["contended_medium"]
    speedup = fresh_cm["speedup"]
    if speedup < RATCHET_MIN_SPEEDUP:
        failures.append(
            f"contended_medium speedup {speedup:.2f}x below the "
            f"absolute floor {RATCHET_MIN_SPEEDUP:.1f}x"
        )
    floor = RATCHET_SPEEDUP_SLIP * committed_cm["speedup"]
    if speedup < floor:
        failures.append(
            f"contended_medium speedup {speedup:.2f}x below "
            f"{RATCHET_SPEEDUP_SLIP:.0%} of the committed "
            f"{committed_cm['speedup']:.2f}x"
        )
    if not fresh_cm["same_results"]:
        failures.append("contended_medium same_results is false — "
                        "schedulers diverged")
    for name in ("event_throughput", "timer_churn", "contended_medium"):
        fresh_rate = fresh["benchmarks"][name]["events_per_s"]
        committed_rate = committed["benchmarks"][name]["events_per_s"]
        if fresh_rate < RATCHET_RATE_SLIP * committed_rate:
            failures.append(
                f"{name} events/sec collapsed: {fresh_rate:,.0f} < "
                f"{RATCHET_RATE_SLIP:.0%} of committed "
                f"{committed_rate:,.0f}"
            )
    return failures


def _summarize(doc: Dict[str, Any]) -> str:
    lines = ["suite 'kernel':"]
    for name, entry in sorted(doc["benchmarks"].items()):
        if name == "contended_medium":
            lines.append(
                f"  {name:18s} baseline {entry['baseline']['best_s']:8.4f} s  "
                f"optimized {entry['optimized']['best_s']:8.4f} s  "
                f"speedup {entry['speedup']:5.2f}x  "
                f"({entry['jobs']:.0f} jobs, same_results="
                f"{entry['same_results']})"
            )
        else:
            lines.append(
                f"  {name:18s} best {entry['best_s'] * 1e3:9.3f} ms  "
                f"{entry['events_per_s']:12,.0f} events/s"
            )
    return "\n".join(lines)


def run_bench_command(args: argparse.Namespace) -> int:
    if args.check is not None:
        for path in args.check:
            try:
                suite = validate_bench_file(path)
            except BenchSchemaError as exc:
                print(f"{path}: SCHEMA ERROR\n{exc}", file=sys.stderr)
                return 1
            if not args.quiet:
                print(f"{path}: ok ({suite})")
        return 0

    # Read the floor before anything runs or is written: --output may
    # be the ratchet's own directory.
    committed = None
    if args.ratchet:
        try:
            with open(args.ratchet) as handle:
                committed = json.load(handle)
            validate_bench_doc(committed)
        except (OSError, ValueError) as exc:
            print(f"ratchet: cannot use {args.ratchet}: {exc}",
                  file=sys.stderr)
            return 1

    doc = _document(args.quick, run_kernel_suite(quick=args.quick))
    # Self-check before writing: a malformed document must fail the
    # producing run, not the consuming CI job three PRs later.
    try:
        validate_bench_doc(doc)
    except BenchSchemaError as exc:
        print(f"BENCH_kernel.json failed self-validation:\n{exc}",
              file=sys.stderr)
        return 1
    if not args.quiet:
        print(_summarize(doc))
    if committed is not None:
        failures = ratchet_kernel(doc, committed)
        if failures:
            for failure in failures:
                print(f"ratchet: {failure}", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"[ratchet vs {args.ratchet}: ok]")
    output_dir = pathlib.Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / "BENCH_kernel.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        print(f"[written to {path}]")
    return 0
