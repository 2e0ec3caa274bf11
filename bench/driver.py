"""One benchmark repeat: run one workload once, in this process, and report.

``bench/run.py`` starts a fresh driver process per repeat, so every
repeat pays its own imports, gets its own randomized hash seed and
measures its own peak RSS.  The driver times only calls into the public
API (``compile_scenario``, ``run_scenario``, ``repro.cli.main``) and
prints one JSON object as the last line of its standard output.

Modes:

``plain``          the default run: ``run_scenario(spec)`` with its default
                   ``Telemetry()``, or the eight figure calls.
``telemetry-off``  the same scenario run with
                   ``Telemetry(tracer=NULL_TRACER)``, the base of
                   ``telemetry.overhead_frac``.
``traced``         the plain run inside the benchmark's own wrappers
                   (``tracing.py``); adds per-layer metrics and appends
                   the spans to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import pathlib
import resource
import shutil
import sys
import tempfile
import time

import stats
import tracing

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MODES = ("plain", "telemetry-off", "traced")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_scenario_workload(args) -> dict:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (setup_s starts just before this import)
    from repro.scenarios import compile_scenario, run_scenario
    from repro.telemetry import NULL_TRACER, Telemetry
    import_s = time.perf_counter() - t0

    import workloads
    spec = workloads.scenario_spec(args.workload, args.seed, small=args.small)

    def telemetry():
        if args.mode == "telemetry-off":
            return Telemetry(tracer=NULL_TRACER)
        return Telemetry()

    t1 = time.perf_counter()
    world = compile_scenario(spec, telemetry=telemetry())
    compile_s = time.perf_counter() - t1
    del world
    gc.collect()

    log = span_log(args)
    with tracing.traced(log) if log else contextlib.nullcontext():
        t2 = time.perf_counter()
        report = run_scenario(spec, telemetry=telemetry())
        wall_s = time.perf_counter() - t2
    rss = peak_rss_mb()

    data = report.to_dict()
    sans_counters = {k: v for k, v in data.items() if k != "counters"}
    totals = data["totals"]
    latencies = sorted(report.latencies())
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "import_s": import_s,
        "compile_s": compile_s,
        "setup_s": import_s + compile_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss,
        "attempted": totals["ops"],
        "completed": totals["completed"],
        "failed": totals["failed"],
        "report_sha256": sha256(report.to_json()),
        "report_sans_counters_sha256": sha256(
            json.dumps(sans_counters, sort_keys=True)),
        "counters": data["counters"],
        "unaccounted": unaccounted_ops(spec, data),
        "sim_time_s": report.sim_time_s,
        "sim_latency_p50_s": stats.percentile(latencies, 50.0),
        "sim_latency_tail": stats.tail_percentile(latencies),
        "sim_latency_samples": len(latencies),
        "sim_energy_j_per_op": sum(report.energy_j.values()) / len(report.ops),
        "transfers_logged": report.transfers,
        "bytes_logged": report.bytes_transferred,
    }
    finish_trace(args, log, result)
    return result


def unaccounted_ops(spec, data) -> list:
    """Clients whose generated operations do not all appear in the report.

    Regenerates each client's arrivals the way the runner does: from the
    scenario seed through the public arrival generator.
    """
    import random
    from repro.scenarios import derive_seed, generate_arrivals

    problems = []
    for client in spec.clients:
        rng = random.Random(derive_seed(spec.seed, "arrivals", client.host))
        expected = len(generate_arrivals(client.arrivals, rng, spec.duration_s))
        section = data["clients"].get(
            client.host, {"ops": 0, "completed": 0, "failed": 0})
        accounted = section["completed"] + section["failed"]
        if section["ops"] != expected or accounted != expected:
            problems.append(f"{client.host}: generated {expected}, reported "
                            f"{section['ops']} ({accounted} completed or failed)")
    return problems


def run_figures_workload(args) -> dict:
    t0 = time.perf_counter()
    import repro.cli  # setup_s: importing the CLI builds no world yet
    setup_s = time.perf_counter() - t0

    import workloads
    names = ["fig10"] if args.small else list(workloads.FIGURE_GOLDENS)
    work = pathlib.Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    out = pathlib.Path(tempfile.mkdtemp(prefix="figures-", dir=work))
    figures = {}
    log = span_log(args)
    try:
        with tracing.traced(log) if log else contextlib.nullcontext():
            t1 = time.perf_counter()
            for name in names:
                t = time.perf_counter()
                code = repro.cli.main(["figures", name, "--output", str(out),
                                       "--quiet"])
                figures[name] = {"wall_s": time.perf_counter() - t,
                                 "exit": code}
            wall_s = time.perf_counter() - t1
        rss = peak_rss_mb()
        first = workloads.GOLDEN_FIRST_LINE - 1
        for name in names:
            text = (out / f"{name}.txt").read_text()
            golden = workloads.golden_path(ROOT, name).read_text()
            figures[name]["sha256"] = sha256(text)
            figures[name]["golden_match"] = (
                figures[name]["exit"] == 0
                and text.splitlines()[first:] == golden.splitlines()[first:])
            if name == "fig9":
                figures[name]["relative_utility"] = relative_utility(text)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result = {
        "workload": "figures",
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss,
        "attempted": len(names),
        "failed": sum(1 for f in figures.values() if not f["golden_match"]),
        "figures": figures,
    }
    finish_trace(args, log, result)
    return result


def relative_utility(fig9_text: str) -> float:
    """The "average relative utility" of Figure 9's summary line."""
    for line in fig9_text.splitlines():
        if line.startswith("average relative utility:"):
            return float(line.split(":")[1].split()[0])
    raise ValueError("fig9 output has no average relative utility line")


def span_log(args):
    """The traced mode's span log; None in the other modes."""
    if args.mode != "traced":
        return None
    return tracing.SpanLog(run_id=f"{args.workload}/seed{args.seed}")


def finish_trace(args, log, result: dict) -> None:
    if log is None:
        return
    layers = tracing.layer_metrics(log, result["wall_s"], args.baseline_wall)
    result["layers"] = {name: value for name, (value, _unit) in layers.items()}
    result["spans"] = log.span_count
    if args.trace_file:
        with open(args.trace_file, "a") as fh:
            log.write_jsonl(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--work", default=str(ROOT / ".bench_work"),
                        help="scratch directory for figure outputs")
    parser.add_argument("--trace-file", default=None,
                        help="traced mode: append the spans here as JSONL")
    parser.add_argument("--baseline-wall", type=float, default=0.0,
                        help="traced mode: the untraced wall_s to compare with")
    parser.add_argument("--small", action="store_true",
                        help="a shrunken run, for the harness's own tests")
    parser.add_argument("--warmup", action="store_true",
                        help="only import the program (compiles bytecode)")
    args = parser.parse_args(argv)

    if args.warmup:
        import repro.cli  # noqa: F401
        import repro.scenarios  # noqa: F401
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "figures":
        result = run_figures_workload(args)
    else:
        result = run_scenario_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
