"""Decision explanation: why did Spectra choose what it chose?

A production placement system that cannot explain itself is very hard
to trust or debug.  Two entry points:

:func:`explain_decision`
    Turns a live :class:`~repro.core.client.OperationHandle` into a
    human-readable account of one decision: the resource snapshot it
    saw, the top alternatives it weighed with their §3.6 time-component
    breakdowns, and the margin by which the winner won.

:func:`explain_trace`
    The same forensics over an **exported telemetry trace** — every
    decision of a whole run, reconstructed from the candidate lists the
    tracer embedded in each ``begin_fidelity_op`` span.  This is what
    makes post-hoc debugging work: the handles are long gone, the
    JSONL file is not.

Usage::

    handle = yield from client.begin_fidelity_op("speech-recognize", ...)
    ...
    print(explain_decision(handle))

    # afterwards, from a trace file:
    from repro.telemetry import load_jsonl, split_records
    spans, _ = split_records(load_jsonl("run.jsonl"))
    print(explain_trace(spans))
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..telemetry import fmt_rate, fmt_seconds
from ..telemetry.names import SPAN_BEGIN_OP
from .client import OperationHandle
from .utility import AlternativePrediction


def _snapshot_lines(handle: OperationHandle) -> List[str]:
    snapshot = handle.snapshot
    if snapshot is None:
        return ["  (no snapshot recorded)"]
    lines = [
        f"  local CPU: {fmt_rate(snapshot.local_cpu_rate_cps)}; "
        f"{len(snapshot.local_cache.cached_files)} files cached",
    ]
    battery = snapshot.battery
    if battery.remaining_joules is not None:
        lines.append(
            f"  battery: {battery.remaining_joules:.0f} J remaining, "
            f"energy importance c={battery.importance:.2f}"
        )
    else:
        lines.append("  battery: wall powered (c=0)")
    for server in sorted(snapshot.servers.values(), key=lambda s: s.name):
        if not server.reachable:
            lines.append(f"  server {server.name}: UNREACHABLE")
            continue
        lines.append(
            f"  server {server.name}: {fmt_rate(server.cpu_rate_cps)}, "
            f"{server.network.bandwidth_bps / 1000:.0f} kB/s @ "
            f"{server.network.latency_s * 1e3:.0f} ms, "
            f"{len(server.cache.cached_files)} files cached"
        )
    if snapshot.dirty_volumes:
        pending = ", ".join(
            f"{volume} ({nbytes / 1024:.0f} KB)"
            for volume, nbytes in sorted(snapshot.dirty_volumes.items())
        )
        lines.append(f"  dirty Coda volumes awaiting reintegration: {pending}")
    return lines


def _prediction_line(prediction: AlternativePrediction,
                     utility: float, marker: str) -> str:
    if not prediction.feasible:
        return (f"  {marker} {prediction.alternative.describe():44s} "
                f"INFEASIBLE ({prediction.infeasible_reason})")
    comps = prediction.components
    breakdown = " + ".join(
        f"{key}={fmt_seconds(value)}"
        for key, value in comps.items() if value > 0
    ) or "negligible"
    return (f"  {marker} {prediction.alternative.describe():44s} "
            f"T={fmt_seconds(prediction.total_time_s):>8s} "
            f"E={prediction.energy_joules:6.2f}J "
            f"u={utility:.4f}\n        [{breakdown}]")


def explain_decision(handle: OperationHandle, top: int = 5) -> str:
    """Render a decision post-mortem for one operation handle.

    Shows the snapshot, the winning alternative, and the *top*
    runners-up by utility, each with its predicted time broken into the
    paper's components (local CPU, remote CPU, network, cache misses,
    consistency).
    """
    lines = [f"Decision for operation #{handle.opid} "
             f"({handle.spec.name}):"]

    if handle.forced:
        lines.append(f"  FORCED to {handle.alternative.describe()} "
                     "(no solver run)")
    elif handle.solver_result is None:
        lines.append(f"  EXPLORATION: {handle.alternative.describe()} "
                     "(untrained bin; gathering its first sample)")
    lines.append("resource snapshot:")
    lines.extend(_snapshot_lines(handle))

    result = handle.solver_result
    if result is not None and result.evaluated:
        ranked: List[Tuple[AlternativePrediction, float]] = sorted(
            result.evaluated, key=lambda pair: pair[1], reverse=True,
        )
        lines.append(
            f"alternatives considered ({result.evaluations} evaluated, "
            f"{result.visits} solver visits):"
        )
        shown = ranked[:top]
        for prediction, utility in shown:
            marker = ("->" if prediction.alternative == handle.alternative
                      else "  ")
            lines.append(_prediction_line(prediction, utility, marker))
        if len(ranked) > top:
            lines.append(f"     ... and {len(ranked) - top} more")
        if len(ranked) >= 2 and ranked[0][1] > 0:
            margin = ((ranked[0][1] - ranked[1][1]) / ranked[0][1])
            lines.append(f"winning margin over runner-up: {margin:.1%}")
    elif handle.prediction is not None:
        if result is not None:
            # The solver ran but was built without collect_evaluated:
            # the winner is known, the also-rans were never kept.
            lines.append(
                "chosen alternative (candidate diagnostics not collected; "
                "build the solver with collect_evaluated=True to rank "
                "alternatives):"
            )
            lines.append(_prediction_line(handle.prediction,
                                          result.utility, "->"))
        else:
            lines.append("prediction for the (forced) alternative:")
            lines.append(_prediction_line(handle.prediction,
                                          float("nan"), "->"))

    if handle.timings:
        timing = ", ".join(
            f"{key}={fmt_seconds(value)}"
            for key, value in handle.timings.items()
        )
        lines.append(f"decision overhead: {timing}")
    return "\n".join(lines)


# -- trace-driven forensics ---------------------------------------------------------


def _candidate_line(candidate: Dict[str, Any], marker: str) -> str:
    name = candidate.get("alternative", "?")
    if not candidate.get("feasible", True):
        reason = candidate.get("reason", "")
        return f"  {marker} {name:44s} INFEASIBLE ({reason})"
    return (f"  {marker} {name:44s} "
            f"T={fmt_seconds(candidate.get('time_s', 0.0)):>8s} "
            f"E={candidate.get('energy_j', 0.0):6.2f}J "
            f"u={candidate.get('utility', 0.0):.4f}")


def explain_trace_record(record: Dict[str, Any], top: int = 5) -> str:
    """Render one ``begin_fidelity_op`` span record as a decision account."""
    attrs = record.get("attrs", {})
    lines = [f"Decision for operation #{attrs.get('opid', '?')} "
             f"({attrs.get('operation', '?')}) "
             f"at t={record.get('start', 0.0):.3f}s:"]
    mode = attrs.get("mode", "?")
    chosen = attrs.get("alternative", "?")
    if mode == "forced":
        lines.append(f"  FORCED to {chosen} (no solver run)")
    elif mode == "explored":
        lines.append(f"  EXPLORATION: {chosen} "
                     "(untrained bin; gathering its first sample)")
    if "battery_importance" in attrs:
        lines.append(
            f"  context: energy importance c={attrs['battery_importance']:.2f}, "
            f"{attrs.get('reachable_servers', 0)} reachable server(s)"
        )
    candidates = attrs.get("candidates") or []
    if candidates:
        lines.append(
            f"alternatives considered ({attrs.get('evaluations', '?')} "
            f"evaluated, {attrs.get('visits', '?')} solver visits):"
        )
        for candidate in candidates[:top]:
            marker = "->" if candidate.get("alternative") == chosen else "  "
            lines.append(_candidate_line(candidate, marker))
        feasible = [c for c in candidates if c.get("feasible", True)]
        if len(feasible) >= 2 and feasible[0].get("utility", 0.0) > 0:
            margin = ((feasible[0]["utility"] - feasible[1]["utility"])
                      / feasible[0]["utility"])
            lines.append(f"winning margin over runner-up: {margin:.1%}")
    elif "predicted_time_s" in attrs:
        lines.append(
            f"  -> {chosen}: predicted "
            f"T={fmt_seconds(attrs['predicted_time_s'])}, "
            f"E={attrs.get('predicted_energy_j', 0.0):.2f}J"
        )
    lines.append(f"decision overhead: "
                 f"{fmt_seconds(record.get('duration', 0.0))}")
    return "\n".join(lines)


def explain_trace(spans: Sequence[Dict[str, Any]], top: int = 5,
                  operation: Optional[str] = None) -> str:
    """Decision forensics for *every* operation in a trace.

    *spans* are span records (dicts) from a telemetry JSONL export;
    pass ``operation`` to restrict to one registered operation name.
    """
    decisions = [
        record for record in spans
        if record.get("name") == SPAN_BEGIN_OP
        and (operation is None
             or record.get("attrs", {}).get("operation") == operation)
    ]
    if not decisions:
        return "(no begin_fidelity_op spans in trace)"
    return "\n\n".join(
        explain_trace_record(record, top=top) for record in decisions
    )
