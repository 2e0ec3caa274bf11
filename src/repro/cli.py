"""Command-line interface: regenerate the paper's figures from a shell.

Examples::

    python -m repro figures all              # every figure of §4
    python -m repro figures fig3 fig10       # a subset
    python -m repro ablations                # the design-choice ablations
    python -m repro baselines                # Spectra vs static/RPF policies
    python -m repro parallel                 # the parallel-plans extension
    python -m repro trace run.jsonl          # forensics on a telemetry trace
    python -m repro scenario run metro       # a canned scenario, JSON report
    python -m repro scenario run chaos-speech  # a server crash mid-operation
    python -m repro list                     # what can be generated

Rendered tables are printed and written to ``--output`` (default
``./results``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Dict, List

from .core.explain import explain_trace
from .experiments import (
    render_accuracy_table,
    render_parallel_table,
    run_accuracy_experiment,
    run_all_ablations,
    run_parallel_experiment,
    run_policy_comparison,
)
from .experiments.ablation import (ablate_solver, render_ablation_table,
                                   render_solver_table)
from .experiments.baselines import render_policy_table
from .experiments.figures import FIGURES, figure_text
from .predictors.cli import add_predictor_arguments, run_predictors_command
from .scenarios import SCENARIOS
from .scenarios.cli import add_scenario_arguments, run_scenario_command
from .telemetry import load_jsonl, render_trace_report, split_records


#: extra table name -> generator returning its rendered text
EXTRAS: Dict[str, Callable[[], str]] = {
    "ablations": lambda: (render_ablation_table(run_all_ablations()) + "\n\n"
                          + render_solver_table(ablate_solver())),
    "baselines": lambda: render_policy_table(run_policy_comparison()),
    "parallel": lambda: render_parallel_table(
        run_parallel_experiment(twin=True),
        run_parallel_experiment(twin=False)),
    "accuracy": lambda: render_accuracy_table(run_accuracy_experiment()),
}


def _write(output_dir: pathlib.Path, name: str, text: str,
           quiet: bool = False) -> pathlib.Path:
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"{name}.txt"
    path.write_text(text + "\n")
    if not quiet:
        print(text)
        print(f"[written to {path}]\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default="results",
                        help="directory for rendered tables (default: "
                             "./results)")
    common.add_argument("--quiet", action="store_true",
                        help="write files without printing tables")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Spectra paper's evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", parents=[common],
                             help="regenerate paper figures")
    figures.add_argument("names", nargs="+",
                         help=f"figure names ({', '.join(FIGURES)}) or 'all'")

    for name, description in (
        ("ablations", "run the design-choice ablations"),
        ("baselines", "compare Spectra against baseline policies"),
        ("parallel", "run the parallel-plans extension study"),
        ("accuracy", "measure prediction-error convergence across "
                     "persisted runs"),
    ):
        sub.add_parser(name, parents=[common], help=description)

    trace = sub.add_parser(
        "trace", parents=[common],
        help="decision forensics on an exported telemetry trace",
        description="Replay a telemetry JSONL trace (jsonl_trace, or "
                    "`repro scenario run --trace`) into per-operation/"
                    "per-phase time & energy breakdowns and a "
                    "prediction-vs-actual table.",
    )
    trace.add_argument("path", help="JSONL trace file")
    trace.add_argument("--explain", action="store_true",
                       help="also render every decision's candidate "
                            "ranking (explain_trace)")
    trace.add_argument("--top", type=int, default=5,
                       help="candidates per decision with --explain "
                            "(default: 5)")

    predictors = sub.add_parser(
        "predictors",
        help="persisted predictor stores: inspect, export, merge",
        description="Work with on-disk predictor stores (the persisted "
                    "demand-model state scenario runs save with "
                    "--save-predictors): list scopes and digests, dump "
                    "one operation's verified document, or merge "
                    "histories across stores.",
    )
    add_predictor_arguments(predictors)

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenarios: list, validate, run",
        description="Work with declarative scenario specs: list the "
                    "canned library, validate canned or JSON specs, or "
                    "compile and run one into a deterministic JSON "
                    "report (same spec + seed = byte-identical report).",
    )
    add_scenario_arguments(scenario, common)

    sub.add_parser("list", help="list everything that can be generated")
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        print("figures:", " ".join(FIGURES))
        print("extras:", " ".join(EXTRAS))
        print("scenarios:", " ".join(sorted(SCENARIOS)))
        return 0

    if args.command == "predictors":
        return run_predictors_command(args)

    if args.command == "scenario":
        return run_scenario_command(args)

    output_dir = pathlib.Path(args.output)

    if args.command == "trace":
        try:
            records = load_jsonl(args.path)
        except (OSError, ValueError) as exc:
            # ValueError covers json.JSONDecodeError: a truncated or
            # hand-edited trace should fail cleanly, not traceback.
            print(f"cannot read trace {args.path!r}: {exc}", file=sys.stderr)
            return 2
        text = render_trace_report(records)
        if args.explain:
            spans, _metrics = split_records(records)
            text += "\n\n" + explain_trace(spans, top=args.top)
        _write(output_dir, "trace", text, quiet=args.quiet)
        return 0

    if args.command == "figures":
        names = list(FIGURES) if "all" in args.names else args.names
        unknown = [n for n in names if n not in FIGURES]
        if unknown:
            print(f"unknown figure(s): {', '.join(unknown)} "
                  f"(known: {', '.join(FIGURES)})", file=sys.stderr)
            return 2
        for name in names:
            _write(output_dir, name, figure_text(name), quiet=args.quiet)
        return 0

    _write(output_dir, args.command, EXTRAS[args.command](),
           quiet=args.quiet)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
