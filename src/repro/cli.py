"""Command-line interface: regenerate the paper's figures from a shell.

Examples::

    python -m repro figures all              # every figure of §4
    python -m repro figures fig3 fig10       # a subset
    python -m repro ablations                # the design-choice ablations
    python -m repro baselines                # Spectra vs static/RPF policies
    python -m repro parallel                 # the parallel-plans extension
    python -m repro trace run.jsonl          # forensics on a telemetry trace
    python -m repro list                     # what can be generated

Rendered tables are printed and written to ``--output`` (default
``./results``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Dict, List

from .apps import make_latex_spec, make_pangloss_spec, make_speech_spec
from .experiments import (
    full_cache_prediction_ms,
    render_accuracy_table,
    run_accuracy_experiment,
    render_bar_figure,
    render_overhead_table,
    render_parallel_table,
    render_rank_figure,
    run_all_ablations,
    run_latex_experiment,
    run_overhead_experiment,
    run_pangloss_experiment,
    run_parallel_experiment,
    run_policy_comparison,
    run_speech_experiment,
    summarize,
)
from .core.explain import explain_trace
from .predictors.cli import add_predictor_arguments, run_predictors_command
from .experiments.ablation import ablate_solver
from .experiments.chaos import render_chaos_report, run_chaos_experiment
from .faults import PROFILES as CHAOS_PROFILES
from .scenarios import SCENARIOS
from .scenarios.cli import add_scenario_arguments, run_scenario_command
from .telemetry import load_jsonl, render_trace_report, split_records

#: figure name -> (description, generator returning rendered text)
Generator = Callable[[], str]


def _fig3() -> str:
    return render_bar_figure(
        "Figure 3: Speech recognition execution time (seconds)",
        make_speech_spec(), run_speech_experiment(), metric="time",
    )


def _fig4() -> str:
    results = run_speech_experiment(scenarios=("energy",))
    return render_bar_figure(
        "Figure 4: Speech recognition energy usage (joules)",
        make_speech_spec(), results, metric="energy",
    )


def _latex_figure(document: str, metric: str, title: str) -> str:
    results = run_latex_experiment(documents=(document,))
    keyed = {scenario: result
             for (scenario, _doc), result in results.items()}
    return render_bar_figure(title, make_latex_spec(), keyed, metric=metric)


def _fig5() -> str:
    return _latex_figure(
        "small", "time",
        "Figure 5: Small document (14 pp) execution time (seconds)",
    )


def _fig6() -> str:
    return _latex_figure(
        "large", "time",
        "Figure 6: Large document (123 pp) execution time (seconds)",
    )


def _fig7() -> str:
    results = run_latex_experiment(scenarios=("energy",))
    keyed = {f"energy/{doc}": result
             for (_scenario, doc), result in results.items()}
    return render_bar_figure(
        "Figure 7: Latex energy usage (joules, energy scenario)",
        make_latex_spec(), keyed, metric="energy",
    )


_PANGLOSS_CACHE: Dict[str, object] = {}


def _pangloss_results():
    if "results" not in _PANGLOSS_CACHE:
        _PANGLOSS_CACHE["results"] = run_pangloss_experiment()
    return _PANGLOSS_CACHE["results"]


def _fig8() -> str:
    return render_rank_figure(
        "Figure 8: Accuracy for Pangloss-Lite (percentile of best)",
        make_pangloss_spec(), _pangloss_results(),
    )


def _fig9() -> str:
    return render_rank_figure(
        "Figure 9: Relative utility for Pangloss-Lite",
        make_pangloss_spec(), _pangloss_results(),
    )


def _fig10() -> str:
    return render_overhead_table(
        run_overhead_experiment(), full_cache_ms=full_cache_prediction_ms(),
    )


FIGURES: Dict[str, Generator] = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
}


def _ablations() -> str:
    lines = ["Ablations: paper design vs ablated design", "=" * 41]
    for outcome in run_all_ablations():
        verdict = "paper design wins" if outcome.baseline_wins else "ABLATED WINS"
        lines.append(f"{outcome.name}: paper={outcome.baseline_value:.4f} "
                     f"ablated={outcome.ablated_value:.4f} "
                     f"({outcome.unit}) — {verdict}")
    solver = ablate_solver()
    lines.append("solver (heuristic vs exhaustive): " + ", ".join(
        f"{key}={value:.3f}" for key, value in sorted(solver.items())
    ))
    return "\n".join(lines)


def _baselines() -> str:
    outcomes = run_policy_comparison()
    means = summarize(outcomes)
    lines = ["Policy comparison (relative utility vs oracle)", "=" * 46]
    for outcome in outcomes:
        lines.append(f"{outcome.scenario:12s} {outcome.policy:14s} "
                     f"{outcome.relative_utility:6.3f}  {outcome.choice}")
    lines.append("means: " + ", ".join(
        f"{policy}={mean:.3f}" for policy, mean in sorted(means.items())
    ))
    return "\n".join(lines)


def _parallel() -> str:
    return render_parallel_table(
        run_parallel_experiment(twin=True),
        run_parallel_experiment(twin=False),
    )


def _accuracy() -> str:
    return render_accuracy_table(run_accuracy_experiment())


EXTRAS: Dict[str, Generator] = {
    "ablations": _ablations,
    "baselines": _baselines,
    "parallel": _parallel,
    "accuracy": _accuracy,
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

    chaos = sub.add_parser(
        "chaos", parents=[common],
        help="run workloads under deterministic fault injection",
        description="Run the chaos experiment: a fault-free baseline "
                    "pass, then the same workload with mid-operation "
                    "server crashes, partitions, and bandwidth faults; "
                    "reports time/energy degradation and the "
                    "retry/failover counters. Exits 1 if any operation "
                    "failed to complete.",
    )
    chaos.add_argument("--profile", default="smoke",
                       choices=sorted(CHAOS_PROFILES),
                       help="chaos profile (default: smoke)")
    chaos.add_argument("--seed", type=int, default=None,
                       help="override the profile's fault/jitter seed")

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
        print("chaos profiles:", " ".join(sorted(CHAOS_PROFILES)))
        return 0

    if args.command == "predictors":
        return run_predictors_command(args)

    if args.command == "scenario":
        return run_scenario_command(args)

    output_dir = pathlib.Path(args.output)

    if args.command == "chaos":
        report = run_chaos_experiment(args.profile, seed=args.seed)
        _write(output_dir, f"chaos-{args.profile}",
               render_chaos_report(report), quiet=args.quiet)
        return 0 if report.completed else 1

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
            _write(output_dir, name, FIGURES[name](), quiet=args.quiet)
        return 0

    _write(output_dir, args.command, EXTRAS[args.command](),
           quiet=args.quiet)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
