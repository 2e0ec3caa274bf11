"""The ``repro scenario`` command group: list, validate, run.

``repro scenario list``
    Every canned scenario with its one-line description.

``repro scenario validate [NAME-or-PATH ...]``
    Validate canned scenarios and/or JSON spec files; no arguments
    validates the whole canned library.  Exits 1 on the first invalid
    spec, printing every path-qualified problem.

``repro scenario run NAME-or-PATH [--seed N] [--profile full|smoke] [--trace FILE]``
    Compile and run a scenario, print the summary, and write the
    deterministic JSON report to ``--output`` — the same spec and seed
    produce a byte-identical report file on every run.  ``--trace``
    also streams every span to a JSONL file for ``repro trace``; the
    report is the same bytes either way.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
import textwrap

import dataclasses

from ..telemetry import jsonl_trace
from .library import SCENARIOS, canned_spec
from .runner import PROFILES, render_report, run_scenario
from .spec import ScenarioError, ScenarioSpec
from .sweep import run_sweep, sweep_to_json


def add_scenario_arguments(parser: argparse.ArgumentParser,
                           common: argparse.ArgumentParser) -> None:
    """Wire the ``scenario`` sub-subcommands onto *parser*."""
    sub = parser.add_subparsers(dest="scenario_command", required=True)

    sub.add_parser("list", help="list the canned scenario library")

    validate = sub.add_parser(
        "validate",
        help="validate canned scenarios and/or JSON spec files",
    )
    validate.add_argument(
        "names", nargs="*",
        help="canned scenario names or paths to JSON spec files "
             "(default: the whole canned library)",
    )

    run = sub.add_parser(
        "run", parents=[common],
        help="run a scenario and write its deterministic JSON report",
    )
    run.add_argument("name",
                     help="canned scenario name or path to a JSON spec")
    run.add_argument("--seed", type=int, default=None,
                     help="override the spec's seed")
    run.add_argument("--profile", default="full", choices=PROFILES,
                     help="run profile (default: full; smoke = CI-sized)")
    run.add_argument("--predictor-store", default=None, metavar="DIR",
                     help="warm-start demand predictors from this store "
                          "directory (per-client scopes)")
    run.add_argument("--save-predictors", action="store_true",
                     help="flush learned predictor state back to "
                          "--predictor-store after the run")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="stream the run's spans and metrics to this "
                          "JSONL file (read it with `repro trace`)")

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="run seeded variants of a scenario across worker processes",
        description="Fan --variants seeded realizations of one scenario "
                    "over forked workers, one per available CPU, and merge "
                    "them into a single deterministic spectra-sweep/1 JSON "
                    "document — byte-identical for any CPU count.",
    )
    sweep.add_argument("name",
                       help="canned scenario name or path to a JSON spec")
    sweep.add_argument("--variants", type=int, default=4,
                       help="seeded traffic realizations (default: 4)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the spec's base seed")
    sweep.add_argument("--profile", default="smoke", choices=PROFILES,
                       help="run profile (default: smoke)")
    sweep.add_argument("--predictor-store", default=None, metavar="DIR",
                       help="warm-start predictors from per-variant scopes "
                            "under this store directory")
    sweep.add_argument("--save-predictors", action="store_true",
                       help="flush each variant's learned predictor state "
                            "back to its scope under --predictor-store")


def _load_spec(name: str) -> ScenarioSpec:
    """A spec from a canned name or a JSON file path (not yet validated)."""
    if name in SCENARIOS:
        return SCENARIOS[name]()
    path = pathlib.Path(name)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read scenario file {name!r}: {exc}")
        return ScenarioSpec.from_json(text)
    raise ValueError(
        f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))} "
        f"(or pass a path to a JSON spec)"
    )


def run_scenario_command(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        for name in sorted(SCENARIOS):
            spec = canned_spec(name)
            print(name)
            print(textwrap.indent(textwrap.fill(spec.description, 72),
                                  "    "))
        return 0

    if args.scenario_command == "validate":
        names = list(args.names) or sorted(SCENARIOS)
        for name in names:
            try:
                _load_spec(name).validate()
            except (ScenarioError, ValueError) as exc:
                print(f"{name}: INVALID\n{exc}", file=sys.stderr)
                return 1
            print(f"{name}: ok")
        return 0

    if args.scenario_command == "sweep":
        try:
            spec = _load_spec(args.name)
            if args.seed is not None:
                spec = dataclasses.replace(spec, seed=args.seed)
            doc = run_sweep(spec, variants=args.variants,
                            profile=args.profile,
                            predictor_store=args.predictor_store,
                            save_predictors=args.save_predictors)
        except (ScenarioError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        output_dir = pathlib.Path(args.output)
        output_dir.mkdir(parents=True, exist_ok=True)
        sweep_path = output_dir / f"sweep-{spec.name}.json"
        sweep_path.write_text(sweep_to_json(doc))
        summary = doc["summary"]
        if not args.quiet:
            latency = summary["latency_mean_s"]
            print(f"sweep {spec.name!r}: {summary['variants']} variants, "
                  f"{summary['completed']}/{summary['ops']} ops completed")
            print(f"  latency mean_s: min {latency['min']:.3f} "
                  f"mean {latency['mean']:.3f} max {latency['max']:.3f}")
            print(f"[sweep written to {sweep_path}]")
        return 0 if summary["completed"] == summary["ops"] else 1

    # run
    try:
        spec = _load_spec(args.name)
    except (ScenarioError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        with (jsonl_trace(args.trace) if args.trace
              else contextlib.nullcontext()) as telemetry:
            report = run_scenario(spec, profile=args.profile, seed=args.seed,
                                  telemetry=telemetry,
                                  predictor_store=args.predictor_store,
                                  save_predictors=args.save_predictors)
    except (ScenarioError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    output_dir = pathlib.Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    report_path = output_dir / f"scenario-{spec.name}.json"
    report_path.write_text(report.to_json())
    if not args.quiet:
        print(render_report(report))
        print(f"[report written to {report_path}]")
    return 0 if report.completed else 1
