"""Trace-driven decision forensics: replay a JSONL trace into answers.

Given the JSONL trace of a run (:func:`~repro.telemetry.hub.jsonl_trace`),
this module reconstructs what the decision loop actually did:

* **where the time went** — per-operation and aggregate breakdowns of
  the ``begin_fidelity_op`` phases (the paper's Figure-10 methodology,
  applied to a whole workload instead of one null-op microbenchmark);
* **where the energy went** — measured joules per operation and per
  operation type;
* **how good the predictions were** — a prediction-vs-actual error
  table over every completed operation that carried a prediction, the
  run-level counterpart of the paper's §4 accuracy claims;
* **what the subsystems did** — RPC, solver, reintegration, and
  sim-kernel aggregates from spans and the metrics snapshot.

Everything operates on plain dict records, so forensics needs no live
simulator and imports nothing from the rest of the reproduction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .formatting import fmt_seconds, render_table
from .names import (
    PHASE_SPAN_PREFIX,
    SIM_EVENTS,
    SIM_PROCESSES,
    SPAN_ABORT_OP,
    SPAN_BEGIN_OP,
    SPAN_CODA_REINTEGRATE,
    SPAN_END_OP,
    SPAN_PREDICT_ALL,
    SPAN_RPC_CALL,
    SPAN_SOLVER_SOLVE,
)

#: begin-phase rendering order (matches OperationHandle.timings)
PHASES = ("file_cache_prediction", "snapshot", "choosing", "consistency")


# -- loading ------------------------------------------------------------------------


def load_jsonl(path) -> List[Dict[str, Any]]:
    """Read one JSON record per non-empty line."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def split_records(
    records: Sequence[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Separate span records from the trailing metrics snapshot."""
    spans = [r for r in records if r.get("type") == "span"]
    metrics: Dict[str, Any] = {}
    for record in records:
        if record.get("type") == "metrics":
            metrics = record.get("metrics", {})
    return spans, metrics


# -- reconstruction -----------------------------------------------------------------


@dataclass
class OperationForensics:
    """Everything the trace says about one fidelity operation."""

    opid: int
    operation: str
    begin: Optional[Dict[str, Any]] = None
    end: Optional[Dict[str, Any]] = None
    aborted: bool = False
    phases: Dict[str, float] = field(default_factory=dict)
    rpcs: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def alternative(self) -> str:
        for record in (self.end, self.begin):
            if record is not None:
                alt = record["attrs"].get("alternative")
                if alt:
                    return alt
        return "?"

    @property
    def mode(self) -> str:
        if self.begin is None:
            return "?"
        return self.begin["attrs"].get("mode", "?")

    @property
    def overhead_s(self) -> Optional[float]:
        return self.begin["duration"] if self.begin is not None else None

    @property
    def elapsed_s(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end["attrs"].get("elapsed_s")

    @property
    def energy_j(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end["attrs"].get("energy_j")

    def prediction_error(self, metric: str) -> Optional[Tuple[float, float, float]]:
        """(predicted, actual, relative error) for ``time`` or ``energy``."""
        if self.end is None:
            return None
        attrs = self.end["attrs"]
        predicted = attrs.get(f"predicted_{'time_s' if metric == 'time' else 'energy_j'}")
        actual = attrs.get("elapsed_s" if metric == "time" else "energy_j")
        if predicted is None or actual is None:
            return None
        denominator = actual if abs(actual) > 1e-12 else 1e-12
        return predicted, actual, (predicted - actual) / denominator


def collect_operations(
    spans: Sequence[Dict[str, Any]],
) -> List[OperationForensics]:
    """Stitch begin/end/abort/phase/rpc spans into per-operation views."""
    ops: Dict[int, OperationForensics] = {}

    def op_for(record: Dict[str, Any]) -> Optional[OperationForensics]:
        opid = record["attrs"].get("opid")
        if opid is None:
            return None
        if opid not in ops:
            ops[opid] = OperationForensics(
                opid=opid, operation=record["attrs"].get("operation", "?"),
            )
        entry = ops[opid]
        if entry.operation == "?" and record["attrs"].get("operation"):
            entry.operation = record["attrs"]["operation"]
        return entry

    begin_ids: Dict[int, int] = {}  # begin span_id -> opid
    for record in spans:
        name = record["name"]
        if name == SPAN_BEGIN_OP:
            entry = op_for(record)
            if entry is not None:
                entry.begin = record
                begin_ids[record["span_id"]] = entry.opid
        elif name == SPAN_END_OP:
            entry = op_for(record)
            if entry is not None:
                entry.end = record
        elif name == SPAN_ABORT_OP:
            entry = op_for(record)
            if entry is not None:
                entry.aborted = True

    # RPC spans attach only to known fidelity operations: control traffic
    # (server-status polls) draws opids from the same namespace but is
    # not an application operation.  Phase spans attach by parent
    # linkage — they carry no opid of their own.
    for record in spans:
        name = record["name"]
        if name == SPAN_RPC_CALL:
            opid = record["attrs"].get("opid")
            if opid in ops:
                ops[opid].rpcs.append(record)
        elif name.startswith(PHASE_SPAN_PREFIX):
            opid = begin_ids.get(record.get("parent_id"))
            if opid is not None:
                phase = name[len(PHASE_SPAN_PREFIX):]
                ops[opid].phases[phase] = record["duration"]

    return [ops[opid] for opid in sorted(ops)]


# -- rendering ----------------------------------------------------------------------


def _ms(value: Optional[float]) -> str:
    return f"{value * 1e3:.2f}" if value is not None else "-"


def render_operations_table(ops: Sequence[OperationForensics]) -> List[str]:
    rows = []
    for op in ops:
        status = "aborted" if op.aborted else ("ok" if op.end else "open")
        rows.append((
            f"#{op.opid} {op.operation}",
            op.alternative,
            op.mode,
            _ms(op.overhead_s),
            fmt_seconds(op.elapsed_s) if op.elapsed_s is not None else "-",
            f"{op.energy_j:.2f}" if op.energy_j is not None else "-",
            status,
        ))
    lines = ["Operations:"]
    lines += render_table(
        ("operation", "alternative", "decided by", "overhead ms",
         "elapsed", "energy J", "status"),
        rows,
    )
    return lines


def render_phase_breakdown(ops: Sequence[OperationForensics]) -> List[str]:
    """Aggregate Figure-10-style view: where decision time went."""
    with_begin = [op for op in ops if op.begin is not None]
    lines = [f"Decision-overhead breakdown "
             f"({len(with_begin)} begin_fidelity_op calls):"]
    if not with_begin:
        lines.append("  (no begin_fidelity_op spans in trace)")
        return lines
    total_overhead = sum(op.overhead_s or 0.0 for op in with_begin)
    rows = []
    for phase in PHASES:
        values = [op.phases[phase] for op in with_begin if phase in op.phases]
        if not values:
            continue
        subtotal = sum(values)
        share = subtotal / total_overhead if total_overhead > 0 else 0.0
        rows.append((phase, str(len(values)), f"{subtotal * 1e3:.2f}",
                     f"{subtotal / len(values) * 1e3:.3f}", f"{share:.1%}"))
    rows.append(("total", str(len(with_begin)), f"{total_overhead * 1e3:.2f}",
                 f"{total_overhead / len(with_begin) * 1e3:.3f}", "100.0%"))
    lines += render_table(
        ("phase", "calls", "total ms", "mean ms", "share"), rows)
    return lines


def render_time_energy_breakdown(
    ops: Sequence[OperationForensics],
) -> List[str]:
    """Per operation type: count, simulated time, and measured energy."""
    by_name: Dict[str, List[OperationForensics]] = {}
    for op in ops:
        if op.end is not None:
            by_name.setdefault(op.operation, []).append(op)
    lines = ["Time & energy by operation type:"]
    rows = []
    for name in sorted(by_name):
        group = by_name[name]
        elapsed = [op.elapsed_s for op in group if op.elapsed_s is not None]
        energy = [op.energy_j for op in group if op.energy_j is not None]
        overhead = [op.overhead_s for op in group if op.overhead_s is not None]
        rows.append((
            name, str(len(group)),
            f"{sum(elapsed):.2f}",
            f"{sum(elapsed) / len(elapsed):.2f}" if elapsed else "-",
            f"{sum(overhead) * 1e3:.1f}" if overhead else "-",
            f"{sum(energy):.2f}" if energy else "-",
            f"{sum(energy) / len(energy):.2f}" if energy else "-",
        ))
    lines += render_table(
        ("operation", "ops", "time s", "mean s", "overhead ms",
         "energy J", "mean J"),
        rows,
    )
    return lines


def render_prediction_errors(ops: Sequence[OperationForensics]) -> List[str]:
    """Prediction-vs-actual table for every predicted, completed op."""
    rows = []
    time_errors: List[float] = []
    energy_errors: List[float] = []
    for op in ops:
        time_pair = op.prediction_error("time")
        if time_pair is None:
            continue
        predicted_t, actual_t, err_t = time_pair
        time_errors.append(abs(err_t))
        energy_pair = op.prediction_error("energy")
        if energy_pair is not None:
            predicted_e, actual_e, err_e = energy_pair
            energy_errors.append(abs(err_e))
            energy_cells = (f"{predicted_e:.2f}", f"{actual_e:.2f}",
                            f"{err_e:+.1%}")
        else:
            energy_cells = ("-", "-", "-")
        rows.append((
            f"#{op.opid} {op.operation}", op.alternative,
            fmt_seconds(predicted_t), fmt_seconds(actual_t), f"{err_t:+.1%}",
            *energy_cells,
        ))
    lines = ["Prediction vs actual:"]
    if not rows:
        lines.append("  (no completed operations carried predictions — "
                     "exploration and forced runs are unpredicted)")
        return lines
    lines += render_table(
        ("operation", "alternative", "T pred", "T actual", "T err",
         "E pred", "E actual", "E err"),
        rows,
    )
    mean_abs = sum(time_errors) / len(time_errors)
    lines.append(f"  mean |time error|: {mean_abs:.1%} over {len(time_errors)} ops")
    if energy_errors:
        mean_abs_e = sum(energy_errors) / len(energy_errors)
        lines.append(f"  mean |energy error|: {mean_abs_e:.1%} "
                     f"over {len(energy_errors)} ops")
    return lines


def render_subsystems(spans: Sequence[Dict[str, Any]],
                      metrics: Dict[str, Any]) -> List[str]:
    """Aggregate what the RPC, solver, and Coda layers reported."""
    lines = ["Subsystems:"]
    rpcs = [s for s in spans if s["name"] == SPAN_RPC_CALL]
    if rpcs:
        failed = sum(1 for s in rpcs if "error" in s["attrs"])
        sent = sum(s["attrs"].get("bytes_sent", 0) for s in rpcs)
        received = sum(s["attrs"].get("bytes_received", 0) for s in rpcs)
        busy = sum(s["duration"] for s in rpcs)
        lines.append(
            f"  rpc: {len(rpcs)} calls ({failed} failed), "
            f"{sent / 1024:.1f} KB sent / {received / 1024:.1f} KB received, "
            f"{fmt_seconds(busy)} on the wire"
        )
    solves = [s for s in spans if s["name"] == SPAN_SOLVER_SOLVE]
    if solves:
        visits = sum(s["attrs"].get("visits", 0) for s in solves)
        evaluations = sum(s["attrs"].get("evaluations", 0) for s in solves)
        pruned = sum(s["attrs"].get("pruned", 0) for s in solves)
        lines.append(
            f"  solver: {len(solves)} solves, {visits} visits, "
            f"{evaluations} evaluations ({pruned} pruned by the memo table)"
        )
    reintegrations = [s for s in spans if s["name"] == SPAN_CODA_REINTEGRATE]
    if reintegrations:
        nbytes = sum(s["attrs"].get("bytes", 0) for s in reintegrations)
        busy = sum(s["duration"] for s in reintegrations)
        lines.append(
            f"  coda: {len(reintegrations)} reintegration passes, "
            f"{nbytes / 1024:.1f} KB of CML drained in {fmt_seconds(busy)}"
        )
    snapshots = [s for s in spans if s["name"] == SPAN_PREDICT_ALL]
    if snapshots:
        lines.append(f"  monitors: {len(snapshots)} snapshot assemblies")
    for name in (SIM_EVENTS, SIM_PROCESSES):
        entry = metrics.get(name)
        if entry is not None:
            lines.append(f"  {name}: {entry.get('value', 0):.0f}")
    if len(lines) == 1:
        lines.append("  (no subsystem spans in trace)")
    return lines


def render_trace_report(records: Sequence[Dict[str, Any]]) -> str:
    """The full ``repro trace`` report over raw JSONL records."""
    spans, metrics = split_records(records)
    ops = collect_operations(spans)
    sections = [
        render_operations_table(ops),
        render_phase_breakdown(ops),
        render_time_energy_breakdown(ops),
        render_prediction_errors(ops),
        render_subsystems(spans, metrics),
    ]
    title = (f"Trace forensics: {len(spans)} spans, "
             f"{len(ops)} operations")
    lines = [title, "=" * len(title)]
    for section in sections:
        lines.append("")
        lines.extend(section)
    return "\n".join(lines)
