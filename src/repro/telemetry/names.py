"""Every telemetry name, as an importable constant.

Counters, histograms and spans are written in one module and read back
by name in another (forensics, decision explanation, report counters).
A misspelled string would silently read zeros; a misspelled constant
fails with an ``ImportError`` when the module loads.  So every writer
and every reader imports its name from here, and no other module spells
any part of one.  ``tests/unit/test_telemetry_names.py`` checks that
no literal name crept back in and that nothing here is left unused.

The begin phases' histograms are a table of five names, and the one
family minted at runtime is the helper at the bottom.
"""

# -- counters -----------------------------------------------------------------

CODA_REINTEGRATED_BYTES = "coda.reintegrated_bytes"
CODA_REINTEGRATIONS = "coda.reintegrations"
FAULTS_INJECTED = "faults.injected"
MONITORS_PREDICTIONS = "monitors.predictions"
MONITORS_SNAPSHOTS = "monitors.snapshots"
RPC_BYTES_RECEIVED = "rpc.bytes_received"
RPC_BYTES_SENT = "rpc.bytes_sent"
RPC_CALLS = "rpc.calls"
RPC_FAILURES = "rpc.failures"
RPC_RETRIES = "rpc.retries"
SIM_EVENTS = "sim.events"
SIM_PROCESSES = "sim.processes"
SOLVER_EVALUATIONS = "solver.evaluations"
SOLVER_PRUNED = "solver.pruned"
SOLVER_SOLVES = "solver.solves"
SOLVER_VISITS = "solver.visits"
SPECTRA_FAILOVERS = "spectra.failovers"
SPECTRA_OPS_ABORTED = "spectra.ops.aborted"
SPECTRA_OPS_BEGUN = "spectra.ops.begun"
SPECTRA_OPS_ENDED = "spectra.ops.ended"
SPECTRA_POLL_ERRORS = "spectra.poll.errors"
STORE_ERRORS = "spectra.predictors.store.errors"
STORE_LOADS = "spectra.predictors.store.loads"
STORE_SAVES = "spectra.predictors.store.saves"

# -- histograms ---------------------------------------------------------------

CODA_REINTEGRATE_S = "coda.reintegrate_s"
RPC_LATENCY_S = "rpc.latency_s"
OP_ELAPSED_S = "spectra.op.elapsed_s"
OP_ENERGY_J = "spectra.op.energy_j"
PREDICT_TIME_ABS_REL_ERR = "spectra.predict.time_abs_rel_err"

#: Histogram of each begin phase's duration (``spectra.begin.{phase}_s``),
#: keyed by the phases ``begin_fidelity_op`` times.  The set is fixed, so
#: the names are built once here, not once per decision;
#: ``tests/unit/test_core_client_server.py`` checks it against the keys
#: ``OperationHandle.timings`` records.
BEGIN_PHASE_S = {phase: f"spectra.begin.{phase}_s" for phase in (
    "file_cache_prediction", "snapshot", "choosing", "consistency", "total")}

# -- spans --------------------------------------------------------------------

SPAN_BEGIN_OP = "begin_fidelity_op"
SPAN_END_OP = "end_fidelity_op"
SPAN_ABORT_OP = "abort_fidelity_op"
SPAN_CODA_REINTEGRATE = "coda.reintegrate"
SPAN_FAULT_INJECT = "fault.inject"
SPAN_PREDICT_ALL = "monitors.predict_all"
SPAN_RPC_CALL = "rpc.call"
SPAN_SOLVER_SOLVE = "solver.solve"
SPAN_FAILOVER = "spectra.failover"

#: Children of a ``begin_fidelity_op`` span, one per decision phase;
#: readers recover the phase as the text after the prefix.
PHASE_SPAN_PREFIX = "phase:"
SPAN_PHASE_FILE_CACHE = "phase:file_cache_prediction"
SPAN_PHASE_SNAPSHOT = "phase:snapshot"
SPAN_PHASE_CHOOSING = "phase:choosing"
SPAN_PHASE_CONSISTENCY = "phase:consistency"

#: Counters surfaced in scenario and chaos reports (0 when never touched).
REPORT_COUNTERS = (
    SPECTRA_FAILOVERS,
    SPECTRA_OPS_ABORTED,
    SPECTRA_POLL_ERRORS,
    RPC_RETRIES,
    RPC_FAILURES,
    FAULTS_INJECTED,
)

# -- the family minted at runtime ---------------------------------------------


def ops_by_mode(mode: str) -> str:
    """Counter of decisions made in *mode* (``spectra.ops.{mode}``)."""
    return f"spectra.ops.{mode}"

