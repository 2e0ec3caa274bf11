"""The repository benchmark: end-to-end and per-layer performance.

Untraced (the end-to-end metrics)::

    python bench/run.py --seed 1                        # every workload
    python bench/run.py --workload metro --seed 2 --repeats 5

Traced (adds the per-layer metrics and writes the spans as JSONL)::

    python bench/run.py --seed 1 --trace out.jsonl
    python bench/run.py --workload figures --seed 1 --trace 1

Each repeat of a workload runs in its own fresh driver process
(``driver.py``), one at a time, single-threaded.  A workload repeats until
it has run ``--repeats`` times and its measured calls add up to at least
``--seconds``; every metric is the median over the repeats.  ``--trace``
takes ``0`` (untraced), ``1`` (traced, spans to ``.bench_work/trace.jsonl``)
or a file name.  A traced invocation first makes the untraced repeats,
then one run with the tracer switched off and one traced run.

A failed output check ends the invocation with exit code 1, names the
check and prints no result.  Otherwise the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the latter holding the end-to-end metrics when untraced and
the per-layer metrics when traced.
See ``bench/README.md`` for the metrics, the workloads and how to read a
trace.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import stats

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER = HERE / "driver.py"
WORK = ROOT / ".bench_work"
DEFAULT_TRACE = WORK / "trace.jsonl"

WORKLOADS = ("metro", "latex-crowd", "figures")
SCENARIO_WORKLOADS = ("metro", "latex-crowd")

#: end-to-end metrics of the JSON result line, with their units
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics of the JSON result line: every workload has each
PER_LAYER = {
    "scenarios.ops_attempted": "count",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "sim.fairshare_submits": "count",
    "sim.self_s": "s",
    "network.log_scans": "count",
    "network.log_scan_self_s": "s",
    "network.log_scan_useful_frac": "frac",
    "network.transfers": "count",
    "network.transfer_bytes": "bytes",
    "network.transfer_wait_sim_s": "sim_s",
    "network.transfers_aborted": "count",
    "monitors.snapshots": "count",
    "monitors.snapshot_s": "s",
    "monitors.snapshot_self_s": "s",
    "predictors.predicts": "count",
    "predictors.predict_self_s": "s",
    "predictors.observes": "count",
    "predictors.observe_self_s": "s",
    "solver.solves": "count",
    "solver.solve_self_s": "s",
    "solver.predicts_per_solve": "count/solve",
    "core.ops_begun": "count",
    "core.ops_aborted": "count",
    "core.abort_frac": "frac",
    "core.failovers": "count",
    "core.decision_us_per_op": "us",
    "rpc.calls": "count",
    "rpc.wait_sim_s": "sim_s",
    "rpc.retries": "count",
    "rpc.retries_per_call": "count/call",
    "rpc.failures": "count",
    "coda.accesses": "count",
    "coda.modifies": "count",
    "coda.reintegrations": "count",
    "coda.reintegrate_wait_sim_s": "sim_s",
    "faults.injected": "count",
    "telemetry.overhead_frac": "frac",
    "telemetry.rss_mb": "MB",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


class CheckFailed(Exception):
    """An output check failed; the message names the check."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"check {check!r} failed: {detail}")
        self.check = check


class DriverFailed(Exception):
    """A driver process exited abnormally."""


# -- driver processes --------------------------------------------------------------


def drive(workload: str, seed: int, mode: str = "plain",
          extra: Tuple[str, ...] = ()) -> dict:
    """Run one driver process to completion and return its result."""
    cmd = [sys.executable, str(DRIVER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work", str(WORK), *extra]
    env = dict(os.environ)
    # Each repeat draws its own hash seed, so identical reports across
    # repeats also show the run does not depend on it.
    env.pop("PYTHONHASHSEED", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise DriverFailed(f"{workload} ({mode}) exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up() -> None:
    """Import the program once, unmeasured, so bytecode compilation is not
    charged to the first repeat's set-up time."""
    proc = subprocess.run([sys.executable, str(DRIVER), "--warmup"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise DriverFailed("warm-up import failed:\n" + proc.stderr[-2000:])


# -- one workload -----------------------------------------------------------------------


def run_workload(workload: str, args, trace_file: Optional[pathlib.Path]
                 ) -> dict:
    """Repeats, checks and metrics of one workload."""
    small = ("--small",) if args.small else ()
    runs: List[dict] = []
    while (len(runs) < args.repeats
           or sum(r["wall_s"] for r in runs) < args.seconds):
        runs.append(drive(workload, args.seed, extra=small))
        print(f"  repeat {len(runs)}: wall {runs[-1]['wall_s']:.3f} s, "
              f"setup {runs[-1]['setup_s']:.3f} s, "
              f"rss {runs[-1]['peak_rss_mb']:.1f} MB"
              + _digest_note(runs[-1]), flush=True)
    check_runs(workload, runs)
    result = {"workload": workload, "runs": runs,
              "end_to_end": end_to_end_metrics(workload, runs)}
    if trace_file is None:
        return result

    baseline = stats.median([r["wall_s"] for r in runs])
    off = None
    if workload in SCENARIO_WORKLOADS:
        off = drive(workload, args.seed, "telemetry-off", small)
        check_telemetry_off(runs[0], off)
    traced = drive(workload, args.seed, "traced",
                   small + ("--baseline-wall", repr(baseline),
                            "--trace-file", str(trace_file)))
    check_traced(workload, runs[0], traced)
    result["extra_runs"] = [r for r in (off, traced) if r is not None]
    result["per_layer"] = per_layer_metrics(workload, runs, off, traced)
    return result


def _digest_note(run: dict) -> str:
    if "report_sha256" in run:
        return f", report sha256 {run['report_sha256']}"
    return ""


def check_runs(workload: str, runs: List[dict]) -> None:
    if workload in SCENARIO_WORKLOADS:
        for run in runs:
            if run["unaccounted"]:
                raise CheckFailed("ops-accounted", "; ".join(run["unaccounted"]))
        digests = {run["report_sha256"] for run in runs}
        if len(digests) != 1:
            raise CheckFailed("repeats-identical",
                              f"{len(runs)} repeats gave {len(digests)} "
                              f"different reports: {sorted(digests)}")
        return
    for run in runs:
        wrong = [name for name, fig in run["figures"].items()
                 if not fig["golden_match"]]
        if wrong:
            raise CheckFailed("figures-match-goldens",
                              f"{', '.join(wrong)} differ from "
                              "benchmarks/results from line 3 on")


def check_telemetry_off(plain: dict, off: dict) -> None:
    if off["report_sans_counters_sha256"] != plain["report_sans_counters_sha256"]:
        raise CheckFailed("telemetry-off-identical",
                          "the report with the tracer off differs outside "
                          "'counters'")


def check_traced(workload: str, plain: dict, traced: dict) -> None:
    if workload in SCENARIO_WORKLOADS:
        same = traced["report_sha256"] == plain["report_sha256"]
    else:
        same = all(traced["figures"][name]["sha256"] == fig["sha256"]
                   for name, fig in plain["figures"].items())
    if not same:
        raise CheckFailed("trace-identical",
                          "the traced run's output differs from the untraced")


# -- metrics -----------------------------------------------------------------------


def end_to_end_metrics(workload: str, runs: List[dict]
                       ) -> Dict[str, Tuple[float, str]]:
    """Medians over the repeats, plus the simulated outputs (identical in
    every repeat, as the check above has shown)."""
    def med(key):
        return stats.median([r[key] for r in runs])

    metrics = {name: (med(name), unit) for name, unit in END_TO_END.items()}
    first = runs[0]
    if workload in SCENARIO_WORKLOADS:
        metrics["ops_per_s"] = (
            stats.median([r["completed"] / r["wall_s"] for r in runs]), "1/s")
        metrics["sim_s_per_wall_s"] = (
            stats.median([r["sim_time_s"] / r["wall_s"] for r in runs]),
            "sim_s/s")
        metrics["failed_op_frac"] = (first["failed"] / first["attempted"],
                                     "frac")
        metrics["sim_latency_p50_s"] = (first["sim_latency_p50_s"], "sim_s")
        if first["sim_latency_tail"] is not None:
            q, value, _beyond = first["sim_latency_tail"]
            metrics[f"sim_latency_p{q:g}_s"] = (value, "sim_s")
        metrics["sim_energy_j_per_op"] = (first["sim_energy_j_per_op"], "sim_J")
    else:
        for name in first["figures"]:
            metrics[f"figures.{name}_s"] = (
                stats.median([r["figures"][name]["wall_s"] for r in runs]), "s")
        if "fig9" in first["figures"]:
            metrics["sim_relative_utility"] = (
                first["figures"]["fig9"]["relative_utility"], "frac")
    return metrics


def per_layer_metrics(workload: str, runs: List[dict], off: Optional[dict],
                      traced: dict) -> Dict[str, Tuple[float, str]]:
    values = dict(traced["layers"])
    values["scenarios.ops_attempted"] = (
        traced["attempted"] if workload in SCENARIO_WORKLOADS else 0)
    # The figure experiments build their worlds without telemetry, so there
    # is nothing to switch off and no comparison run: both read 0.
    values["telemetry.overhead_frac"] = values["telemetry.rss_mb"] = 0.0
    if off is not None:
        wall = stats.median([r["wall_s"] for r in runs])
        values["telemetry.overhead_frac"] = (wall - off["wall_s"]) / off["wall_s"]
        values["telemetry.rss_mb"] = (
            stats.median([r["peak_rss_mb"] for r in runs]) - off["peak_rss_mb"])
    metrics = {}
    if workload in SCENARIO_WORKLOADS:
        # printed only: the figures build no scenario world
        metrics["scenarios.compile_s"] = (values["scenarios.compile_s"], "s")
    metrics.update((name, (values[name], unit))
                   for name, unit in PER_LAYER.items())
    return metrics


# -- output ------------------------------------------------------------------------


def print_end_to_end(result: dict) -> None:
    runs = result["runs"]
    print(f"  end to end, median of {len(runs)} repeats (untraced):")
    print(f"    {'metric':28s} {'unit':8s} {'median':>14s} {'q1':>12s} "
          f"{'q3':>12s}")
    for name, (value, unit) in result["end_to_end"].items():
        q1 = q3 = ""
        if name in END_TO_END:
            q1, q3 = (f"{v:12.4f}" for v in stats.quartiles(
                [r[name] for r in runs]))
        print(f"    {name:28s} {unit:8s} {value:14.6g} {q1:>12s} {q3:>12s}")
    first = runs[0]
    if "sim_latency_samples" in first:
        tail = first["sim_latency_tail"]
        note = (f"; p{tail[0]:g} has {tail[2]} samples beyond it" if tail
                else "; too few samples for a tail percentile")
        print(f"    latency samples: {first['sim_latency_samples']}{note}")
        print(f"    report sha256: {first['report_sha256']} "
              f"(identical in all {len(runs)} repeats)")
    else:
        for name, fig in first["figures"].items():
            print(f"    {name} sha256 {fig['sha256']} (matches its golden)")


def print_per_layer(result: dict) -> None:
    traced = result["extra_runs"][-1]
    print(f"  per layer (traced run, {traced['spans']} spans, "
          f"traced wall {traced['wall_s']:.3f} s):")
    for name, (value, unit) in result["per_layer"].items():
        print(f"    {name:32s} {unit:12s} {value:16.6g}")
    if len(result["extra_runs"]) == 2:
        off, plain = result["extra_runs"][0], result["runs"][0]
        gaps = [f"{k} {plain['counters'][k]:g} -> {v:g}"
                for k, v in off["counters"].items()
                if v != plain["counters"][k]]
        print("    report counters with the tracer off: "
              + (", ".join(gaps) if gaps else "all equal"))


def summary(results: List[dict], traced: bool) -> dict:
    """The JSON result line; only a run whose checks all passed gets one."""
    attempted = failed = 0
    for result in results:
        for run in result["runs"] + result.get("extra_runs", []):
            attempted += run["attempted"]
            failed += run["failed"]
    wanted = PER_LAYER if traced else END_TO_END
    key = "per_layer" if traced else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for name in wanted:
            value, unit = result[key][name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- entry point -------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed of the scenario workloads")
    parser.add_argument("--repeats", type=int, default=3,
                        help="minimum repeats per workload (default: 3)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating until the measured calls add "
                             "up to this many seconds (default: 0)")
    parser.add_argument("--trace", default="0",
                        help="0: untraced; 1: traced, spans to "
                             ".bench_work/trace.jsonl; else the JSONL path")
    parser.add_argument("--small", action="store_true",
                        help="shrunken workloads, for testing the harness")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def layout_problem() -> Optional[str]:
    for path in (ROOT / "src" / "repro" / "__init__.py",
                 ROOT / "benchmarks" / "results"):
        if not path.exists():
            return f"{path.relative_to(ROOT)} is missing: run the benchmark " \
                   "from a full checkout of the repository"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = layout_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    trace_file = None
    if args.trace != "0":
        trace_file = DEFAULT_TRACE if args.trace == "1" else pathlib.Path(
            args.trace).resolve()
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text("")
    WORK.mkdir(exist_ok=True)

    started = time.perf_counter()
    results: List[dict] = []
    try:
        warm_up()
        for workload in args.workload or WORKLOADS:
            seed_note = (" (its inputs are fixed by the goldens; the seed "
                         "is ignored)" if workload == "figures" else "")
            print(f"== {workload}, seed {args.seed}{seed_note}", flush=True)
            result = run_workload(workload, args, trace_file)
            results.append(result)
            print_end_to_end(result)
            if trace_file is not None:
                print_per_layer(result)
    except (CheckFailed, DriverFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if trace_file is not None:
        print(f"spans written to {trace_file}")
    print(f"benchmark took {time.perf_counter() - started:.1f} s")
    print(json.dumps(summary(results, trace_file is not None)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
