"""The Spectra client: the paper's Figure-1 API.

One :class:`SpectraClient` runs on the mobile host, alongside the
application.  It owns the monitor set, the per-operation demand
predictors, the server database with its remote proxy monitors, and the
solver.  The five API calls map directly onto the paper's:

=====================  =========================================
``register_fidelity``  :meth:`SpectraClient.register_fidelity`
``begin_fidelity_op``  :meth:`SpectraClient.begin_fidelity_op`
``do_local_op``        :meth:`SpectraClient.do_local_op`
``do_remote_op``       :meth:`SpectraClient.do_remote_op`
``end_fidelity_op``    :meth:`SpectraClient.end_fidelity_op`
=====================  =========================================

All five are simulation *processes* (generators): they consume simulated
time — including Spectra's own decision overhead, charged in CPU cycles
to the client processor, which is how the Figure-10 overhead experiment
and the "last bar" of Figures 3–6 arise.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from ..coda import CodaClient
from ..hosts import Host
from ..monitors import (
    BatteryEstimate,
    CacheStateEstimate,
    FileCacheMonitor,
    LocalCPUMonitor,
    MonitorSet,
    MultimeterMonitor,
    NetworkMonitor,
    OperationRecording,
    RemoteProxyMonitor,
    ResourceSnapshot,
    SmartBatteryMonitor,
)
from ..network import NoRouteError, TransferAbortedError
from ..predictors import OperationDemandPredictor, UsageLog, discrete_key
from ..rpc import (
    Request,
    Response,
    RetryPolicy,
    RpcError,
    RpcTransport,
    ServiceUnavailableError,
    is_retryable,
    next_opid,
)
from ..sim import Timeout
# Submodule-level imports (not the solver package facade) keep the
# core <-> solver import graph acyclic regardless of entry point.
from ..solver.heuristic import HeuristicSolver
from ..solver.space import SearchSpace, SolverResult, SpaceCache
from ..telemetry import Telemetry, ensure_telemetry
from ..telemetry.names import (
    OP_ELAPSED_S,
    OP_ENERGY_J,
    PREDICT_TIME_ABS_REL_ERR,
    SPAN_ABORT_OP,
    SPAN_BEGIN_OP,
    SPAN_END_OP,
    SPAN_FAILOVER,
    SPAN_PHASE_CHOOSING,
    SPAN_PHASE_CONSISTENCY,
    SPAN_PHASE_FILE_CACHE,
    SPAN_PHASE_SNAPSHOT,
    SPECTRA_FAILOVERS,
    SPECTRA_OPS_ABORTED,
    SPECTRA_OPS_BEGUN,
    SPECTRA_OPS_ENDED,
    SPECTRA_POLL_ERRORS,
    BEGIN_PHASE_S,
    ops_by_mode,
)
from .estimate import DemandEstimator
from .operation import OperationSpec
from .overhead import OverheadModel
from .plans import Alternative
from .server import CONTROL_SERVICE, SpectraServer
from .utility import AlternativePrediction, DefaultUtility

if TYPE_CHECKING:
    from ..predictors.store import PredictorStore


class NoFeasibleAlternativeError(RuntimeError):
    """No executable alternative exists for an operation.

    Raised when every plan requires a remote server and no server is
    reachable (or every candidate has already failed during this
    operation's failover sequence).  Typed so applications can
    distinguish "Spectra cannot place this work anywhere" from RPC-level
    failures, which are transient.
    """


@dataclass(slots=True)
class OperationHandle:
    """Live state of one operation between begin and end."""

    opid: int
    spec: OperationSpec
    alternative: Alternative
    recording: OperationRecording
    params: Dict[str, float]
    data_object: Optional[str]
    prediction: Optional[AlternativePrediction] = None
    solver_result: Optional[SolverResult] = None
    snapshot: Optional[ResourceSnapshot] = None
    forced: bool = False
    #: begin_fidelity_op phase durations (seconds): file_cache_prediction,
    #: snapshot, choosing, consistency, total — the Figure-10 breakdown.
    timings: Dict[str, float] = field(default_factory=dict)
    #: set once end_fidelity_op or abort_fidelity_op has run
    finished: bool = False
    #: True once the operation has been re-placed after a mid-op failure.
    #: end_fidelity_op then skips the demand-model update: the recording
    #: covers only the surviving attempt, not the whole operation.
    failed_over: bool = False
    #: servers that failed mid-operation; excluded from re-placement
    failed_servers: set = field(default_factory=set)

    @property
    def plan_name(self) -> str:
        return self.alternative.plan.name

    @property
    def server(self) -> Optional[str]:
        return self.alternative.server

    @property
    def fidelity(self) -> Dict[str, Any]:
        return self.alternative.fidelity_dict()


@dataclass(slots=True)
class OperationReport:
    """What end_fidelity_op returns: the operation's measured outcome."""

    opid: int
    operation: str
    alternative: Alternative
    elapsed_s: float
    usage: Dict[str, float]
    file_accesses: Dict[str, int]
    concurrent: bool
    prediction: Optional[AlternativePrediction]
    #: the operation survived a mid-op failure via re-placement
    failed_over: bool = False

    @property
    def energy_joules(self) -> float:
        return self.usage.get("energy:client", 0.0)


class RegisteredOperation:
    """Client-side state for one registered operation."""

    def __init__(self, spec: OperationSpec, decay: float = 0.95,
                 log=None):
        self.spec = spec
        # Continuous fidelity dimensions regress alongside the input
        # parameters (paper §3.4); categorical dimensions bin.
        feature_names = spec.input_params + spec.continuous_fidelity_names()
        self.predictor = OperationDemandPredictor(
            feature_names=feature_names, decay=decay, log=log,
        )


class SpectraClient:
    """The client-side Spectra runtime on one mobile host."""

    def __init__(
        self,
        sim,
        host: Host,
        transport: RpcTransport,
        coda: CodaClient,
        local_server: SpectraServer,
        solver=None,
        overhead: Optional[OverheadModel] = None,
        predictor_decay: float = 0.95,
        always_reintegrate: bool = False,
        telemetry: Optional[Telemetry] = None,
        store_dir=None,
    ):
        self.sim = sim
        self.host = host
        self.transport = transport
        self.coda = coda
        self.local_server = local_server
        self.telemetry = ensure_telemetry(telemetry)
        # Candidate diagnostics (SolverResult.evaluated) feed the trace
        # forensics; without a tracer nobody reads them, so the default
        # solver only materializes them when spans are recorded.
        self.solver = (solver if solver is not None
                       else HeuristicSolver(
                           telemetry=self.telemetry,
                           collect_evaluated=self.telemetry.tracer.enabled))
        self.overhead = overhead if overhead is not None else OverheadModel()
        #: recency decay for demand models (1.0 = unweighted; ablation)
        self.predictor_decay = predictor_decay
        #: ablation: reintegrate every dirty volume before any remote
        #: execution, instead of only volumes the file predictor says
        #: the operation will read (§3.5's likelihood-driven policy)
        self.always_reintegrate = always_reintegrate
        #: persistent predictor state: when set, register_fidelity
        #: warm-starts each operation from the store's usage log and
        #: flush_predictors/shutdown write learned state back — the
        #: cross-run half of the paper's self-tuning loop.  Accepts a
        #: directory path or a ready PredictorStore.
        self.predictor_store: Optional[PredictorStore] = store_dir
        if store_dir is not None:
            from ..predictors.store import PredictorStore
            if not isinstance(store_dir, PredictorStore):
                self.predictor_store = PredictorStore(
                    store_dir, telemetry=self.telemetry
                )

        self.network_monitor = NetworkMonitor(host.name, transport.network)
        battery_cls = (SmartBatteryMonitor if host.battery_driver is not None
                       else MultimeterMonitor)
        self.monitors = MonitorSet([
            LocalCPUMonitor(host),
            self.network_monitor,
            battery_cls(host),
            FileCacheMonitor(coda),
        ], telemetry=self.telemetry)

        #: server database: name -> proxy monitor (paper: statically
        #: configured; a discovery protocol could add entries here too)
        self._proxies: Dict[str, RemoteProxyMonitor] = {}
        #: proxy names maintained in sorted order at insertion time, so
        #: the hot paths (polling, snapshots, placement) iterate without
        #: re-sorting the server database on every traversal.
        self._proxy_order: List[str] = []
        #: memoized SearchSpace per (operation, reachable-servers) key;
        #: invalidated on discovery (add_server) and mid-op failover.
        self._space_cache = SpaceCache()
        self._operations: Dict[str, RegisteredOperation] = {}
        self._active: List[OperationRecording] = []
        self._polling = False
        #: bumped on every start_polling; a parked loop from an earlier
        #: start exits when its captured generation goes stale, so a
        #: stop/start cycle never leaves two loops polling (each loop
        #: checks its token, not just the shared boolean)
        self._poll_generation = 0
        #: override hook for tests/ablations: replaces DefaultUtility
        self.utility_factory = None
        #: retry policy applied to operation RPCs (not status polls);
        #: None = single attempt, the paper's original behaviour
        self.retry_policy: Optional[RetryPolicy] = None
        #: when True, an unforced operation whose remote RPC fails with a
        #: retryable error is transparently re-placed (see _failover_op)
        self.failover_enabled = True

    # -- server database ---------------------------------------------------------------

    def add_server(self, server_name: str) -> RemoteProxyMonitor:
        """Register a potential remote server (static configuration)."""
        if server_name == self.host.name:
            raise ValueError("the local machine is not a *remote* server")
        proxy = self._proxies.get(server_name)
        if proxy is None:
            proxy = RemoteProxyMonitor(server_name)
            self._proxies[server_name] = proxy
            insort(self._proxy_order, server_name)
            self.monitors.add(proxy)
            # Discovery changes the candidate set: cached spaces built
            # before this server existed must not be served again.
            self._space_cache.invalidate()
        return proxy

    def server_names(self) -> List[str]:
        return list(self._proxy_order)

    def known_servers(self) -> List[str]:
        """Servers whose last poll succeeded (candidates for placement)."""
        proxies = self._proxies
        return [name for name in self._proxy_order
                if proxies[name].status is not None]

    # -- polling -------------------------------------------------------------------------

    def poll_servers(self) -> Generator:
        """Process: refresh every proxy monitor's server status.

        Unreachable or down servers lose their status (and thus drop out
        of the candidate set) until a later poll succeeds.  *Any* failure
        of a single poll — a mid-transfer partition, a malformed status
        payload — marks that one server unreachable and moves on; the
        poll loop is background infrastructure and must not die because
        one server misbehaved.
        """
        for server_name in self._proxy_order:
            proxy = self._proxies[server_name]
            request = Request(
                service=CONTROL_SERVICE, optype="_status", opid=next_opid(),
            )
            try:
                response = yield from self.transport.call(
                    self.host.name, server_name, request
                )
            except ServiceUnavailableError:
                # The ordinary "server is down" signal: not an error.
                proxy.mark_unreachable()
                continue
            except (RpcError, TransferAbortedError, NoRouteError):
                proxy.mark_unreachable()
                self._count_poll_error()
                continue
            try:
                proxy.update_preds(response.result)
            except (TypeError, AttributeError, ValueError, KeyError):
                # A garbled status payload must not kill the loop either.
                proxy.mark_unreachable()
                self._count_poll_error()
        return None

    def _count_poll_error(self) -> None:
        self.telemetry.metrics.counter(SPECTRA_POLL_ERRORS).inc()

    def start_polling(self, interval_s: float = 5.0) -> None:
        """Begin periodic background polling of all servers."""
        if self._polling:
            return
        self._polling = True
        self._poll_generation += 1
        generation = self._poll_generation

        def loop():
            # The generation check retires loops from earlier
            # start/stop cycles: a loop parked on its Timeout when
            # polling restarts wakes into a stale generation and exits
            # instead of doubling the poll rate.
            while self._polling and generation == self._poll_generation:
                yield from self.poll_servers()
                yield Timeout(interval_s)

        self.sim.spawn(loop(), name=f"spectra-poll@{self.host.name}")

    def stop_polling(self) -> None:
        self._polling = False

    # -- register_fidelity ------------------------------------------------------------------

    def register_fidelity(self, spec: OperationSpec,
                          usage_log_json: Optional[str] = None) -> Generator:
        """Process: register an operation; returns RegisteredOperation.

        ``usage_log_json`` warm-starts the demand models from a
        previously exported log ("each predictor reads the logged
        resource usage data"), so learned behaviour survives restarts.
        When no explicit log is given and :attr:`predictor_store` is
        set, the store's document for this operation (if any) supplies
        the log instead — cross-run warm start.  A missing, corrupt, or
        wrong-version document degrades to a cold start.
        """
        yield self.host.cpu.submit(
            self.overhead.register_cycles, owner="spectra"
        ).done
        if spec.name in self._operations:
            raise ValueError(f"operation {spec.name!r} already registered")
        log = (UsageLog.from_json(usage_log_json)
               if usage_log_json is not None else None)
        if log is None and self.predictor_store is not None:
            stored = self.predictor_store.load(spec.name)
            if stored is not None:
                log = stored.log
        registered = RegisteredOperation(spec, decay=self.predictor_decay,
                                         log=log)
        self._operations[spec.name] = registered
        return registered

    def export_usage_log(self, operation: str) -> str:
        """Serialize an operation's learned history for a later
        :meth:`register_fidelity` warm start."""
        return self.operation(operation).predictor.log.to_json()

    def flush_predictors(self) -> Dict[str, str]:
        """Checkpoint every registered operation's learned state to
        :attr:`predictor_store`; returns ``{operation: digest}``.

        A no-op (empty dict) without a store.  Safe to call repeatedly:
        the store writes are atomic and byte-deterministic, so flushing
        twice without new observations rewrites identical documents.
        """
        if self.predictor_store is None:
            return {}
        digests: Dict[str, str] = {}
        for name in sorted(self._operations):
            registered = self._operations[name]
            digests[name] = self.predictor_store.save(
                name, registered.predictor
            )
        return digests

    def shutdown(self) -> Dict[str, str]:
        """Stop background work and persist learned predictor state."""
        self.stop_polling()
        return self.flush_predictors()

    def operation(self, name: str) -> RegisteredOperation:
        try:
            return self._operations[name]
        except KeyError:
            raise KeyError(f"operation {name!r} not registered") from None

    # -- begin_fidelity_op --------------------------------------------------------------------

    def begin_fidelity_op(
        self,
        operation: str,
        params: Optional[Dict[str, float]] = None,
        data_object: Optional[str] = None,
        force: Optional[Alternative] = None,
    ) -> Generator:
        """Process: decide how and where to execute; returns a handle.

        ``force`` bypasses the solver and pins the alternative — used for
        training runs and for the experiments' measure-every-alternative
        sweeps.  Consistency enforcement (reintegration of dirty volumes
        the operation will read remotely) happens here either way.
        """
        registered = self.operation(operation)
        spec = registered.spec
        params = dict(params or {})
        opid = next_opid()
        owner = f"{operation}#{opid}"

        recording = OperationRecording(owner=owner, started_at=self.sim.now)
        self._note_concurrency(recording)
        self.monitors.start_all(recording)

        tracer = self.telemetry.tracer
        op_span = tracer.start_span(
            SPAN_BEGIN_OP, operation=operation, opid=opid,
        )
        timings: Dict[str, float] = {}
        t_begin = self.sim.now

        try:
            # Fixed begin overhead.
            yield self.host.cpu.submit(self.overhead.begin_base_cycles,
                                       owner=owner).done

            # File-cache prediction: scales with the number of cached
            # entries (the Coda temp-file interface the paper calls out
            # in §4.4).
            t_phase = self.sim.now
            with op_span.child(SPAN_PHASE_FILE_CACHE) as phase_span:
                cached_entries = len(self.coda.cache)
                yield self.host.cpu.submit(
                    self.overhead.cache_predict_base_cycles
                    + self.overhead.cache_predict_per_entry_cycles
                    * cached_entries,
                    owner=owner,
                ).done
                phase_span.end(cached_entries=cached_entries)
            timings["file_cache_prediction"] = self.sim.now - t_phase

            t_phase = self.sim.now
            with op_span.child(SPAN_PHASE_SNAPSHOT) as phase_span:
                snapshot = self._take_snapshot()
                yield self.host.cpu.submit(
                    self.overhead.snapshot_per_server_cycles
                    * len(snapshot.servers),
                    owner=owner,
                ).done
                phase_span.end(servers=len(snapshot.servers))
            timings["snapshot"] = self.sim.now - t_phase

            estimator = DemandEstimator(
                spec, registered.predictor, snapshot, params, data_object,
                always_reintegrate=self.always_reintegrate,
            )

            t_phase = self.sim.now
            with op_span.child(SPAN_PHASE_CHOOSING) as phase_span:
                solver_result: Optional[SolverResult] = None
                if force is not None:
                    alternative = force
                    prediction = estimator.predict(alternative)
                else:
                    alternative, prediction, solver_result = self._choose(
                        registered, estimator, snapshot
                    )
                    if solver_result is not None:
                        yield self.host.cpu.submit(
                            self.overhead.choose_per_eval_cycles
                            * solver_result.visits,
                            owner=owner,
                        ).done
                phase_span.end()
            timings["choosing"] = self.sim.now - t_phase

            handle = OperationHandle(
                opid=opid,
                spec=spec,
                alternative=alternative,
                recording=recording,
                params=params,
                data_object=data_object,
                prediction=prediction,
                solver_result=solver_result,
                snapshot=snapshot,
                forced=force is not None,
            )

            # Consistency: flush dirty volumes the remote execution
            # will read.
            t_phase = self.sim.now
            with op_span.child(SPAN_PHASE_CONSISTENCY) as phase_span:
                for volume in estimator.reintegration_volumes(alternative):
                    yield from self.coda.reintegrate_volume(volume)
                phase_span.end()
            timings["consistency"] = self.sim.now - t_phase

            timings["total"] = self.sim.now - t_begin
            # The Figure-10 dict: the phase spans share its clock reads,
            # so a trace's phase:* durations equal these values exactly.
            handle.timings = timings
            if tracer.enabled:
                self._trace_decision(op_span, handle)
            else:
                op_span.end()
            self._count_decision(handle)
            # On success the recording stays live on purpose: it is
            # handed to the caller inside the handle, and stop_all is
            # end/abort_fidelity_op's job.  The in-function stop_all
            # below is only the failure unwind.
            return handle  # recording stopped by end/abort_fidelity_op
        except BaseException as exc:
            # Any mid-operation failure — no feasible alternative, an
            # aborted reintegration transfer at a yield, the process
            # killed during failover — must leave no half-open
            # observation behind: release the concurrency slot, stop
            # the monitors, and close the span before propagating.
            # (The open phase span, if any, is closed by its `with`.)
            self.monitors.stop_all(recording)
            self._drop_active(recording)
            op_span.end(error=type(exc).__name__)
            raise

    @staticmethod
    def _decision_mode(handle: OperationHandle) -> str:
        if handle.forced:
            return "forced"
        return "explored" if handle.solver_result is None else "solver"

    def _count_decision(self, handle: OperationHandle) -> None:
        metrics = self.telemetry.metrics
        metrics.counter(SPECTRA_OPS_BEGUN).inc()
        metrics.counter(ops_by_mode(self._decision_mode(handle))).inc()
        for phase, duration in handle.timings.items():
            metrics.histogram(BEGIN_PHASE_S[phase]).observe(duration)

    def _trace_decision(self, op_span, handle: OperationHandle) -> None:
        """Close the begin span with the decision's full context."""
        prediction = handle.prediction
        attrs: Dict[str, Any] = {
            "mode": self._decision_mode(handle),
            "alternative": handle.alternative.describe(),
            "plan": handle.plan_name,
            "server": handle.server,
        }
        if handle.snapshot is not None:
            attrs["battery_importance"] = handle.snapshot.battery.importance
            attrs["reachable_servers"] = len(
                handle.snapshot.reachable_servers()
            )
        if prediction is not None:
            attrs["predicted_time_s"] = prediction.total_time_s
            attrs["predicted_energy_j"] = prediction.energy_joules
        result = handle.solver_result
        if result is not None:
            attrs["utility"] = result.utility
            attrs["visits"] = result.visits
            attrs["evaluations"] = result.evaluations
            # evaluated is opt-in (collect_evaluated); the default
            # telemetry-enabled solver collects it, a custom solver may
            # not — trace what exists.
            ranked = sorted(result.evaluated, key=lambda pair: pair[1],
                            reverse=True)
            attrs["candidates"] = [
                {
                    "alternative": p.alternative.describe(),
                    "utility": utility,
                    "time_s": p.total_time_s,
                    "energy_j": p.energy_joules,
                    "feasible": p.feasible,
                    "reason": p.infeasible_reason,
                }
                for p, utility in ranked[:5]
            ]
        op_span.end(**attrs)

    def _note_concurrency(self, recording: OperationRecording) -> None:
        self._active.append(recording)
        if len(self._active) > 1:
            for active in self._active:
                active.concurrent = True

    def _drop_active(self, recording: OperationRecording) -> None:
        """Release *recording*'s concurrency slot."""
        self._active = [r for r in self._active if r is not recording]

    def _untried_alternative(self, registered: RegisteredOperation,
                             space: SearchSpace) -> Optional[Alternative]:
        """First alternative whose (plan × fidelity) bin has no data.

        De-duplicated by discrete context: ``remote@A`` and ``remote@B``
        share a bin, so exploring one trains both.
        """
        seen: set = set()
        for alternative in space.all_alternatives():
            discrete, _continuous = registered.spec.decision_context(
                alternative
            )
            key = discrete_key(discrete)
            if key in seen:
                continue
            seen.add(key)
            if not registered.predictor.has_bin("cpu:local", discrete):
                return alternative
        return None

    def _take_snapshot(self) -> ResourceSnapshot:
        snapshot = ResourceSnapshot(
            taken_at=self.sim.now,
            local_host=self.host.name,
            local_cpu_rate_cps=0.0,
            local_cache=CacheStateEstimate(cached_files={}, fetch_rate_bps=0.0),
            battery=BatteryEstimate(remaining_joules=None, importance=0.0),
        )
        self.monitors.predict_all(snapshot, self.server_names())
        snapshot.fileserver_network = self.network_monitor.estimate_fileserver(
            self.coda.server.host_name, self.sim.now
        )
        return snapshot

    def _choose(
        self,
        registered: RegisteredOperation,
        estimator: DemandEstimator,
        snapshot: ResourceSnapshot,
    ) -> Tuple[Alternative, Optional[AlternativePrediction],
               Optional[SolverResult]]:
        spec = registered.spec
        reachable = [s.name for s in snapshot.reachable_servers()]
        # Reachability is part of the key, so poll-driven churn
        # self-invalidates; the cached space keeps its decode and
        # decision-context memos warm across operations.
        space = self._space_cache.get(spec, reachable)

        # Exploration: a (plan × fidelity) bin that has never executed
        # has no demand model, so the solver would see it as infeasible
        # forever.  Try each untried bin once, deterministically, before
        # trusting the solver ("the more an operation is executed, the
        # more accurately its resource usage is predicted").  Bins are
        # server-independent — demand is a property of the work — so one
        # server suffices to train a remote plan's bin.
        untried = self._untried_alternative(registered, space)
        if untried is not None:
            return untried, None, None

        utility = self._utility(spec, snapshot)
        result = self.solver.solve(space, estimator.predict, utility)
        if not result.found:
            # Everything infeasible (e.g. all servers down and the local
            # plan missing): fall back to the first local-capable plan.
            # The space can also be *empty* — every plan needs a remote
            # server and none is reachable — in which case there is
            # nothing to fall back to and indexing would blow up.
            alternatives = space.all_alternatives()
            fallback = next(
                (a for a in alternatives if not a.plan.uses_remote),
                alternatives[0] if alternatives else None,
            )
            if fallback is None:
                raise NoFeasibleAlternativeError(
                    f"operation {spec.name!r}: every execution plan "
                    "requires a remote server and no server is reachable"
                )
            return fallback, None, result
        return result.best.alternative, result.best, result

    def _utility(self, spec: OperationSpec, snapshot: ResourceSnapshot):
        """The utility function for one decision on *snapshot*."""
        factory = self.utility_factory or DefaultUtility
        return factory(spec, snapshot.battery.importance)

    # -- do_local_op / do_remote_op ------------------------------------------------------------

    def do_local_op(self, handle: OperationHandle, service: str,
                    optype: str, indata_bytes: int = 0,
                    params: Optional[Dict[str, Any]] = None) -> Generator:
        """Process: RPC to the local Spectra server."""
        return self._do_op(
            handle, self.host.name, service, optype, indata_bytes, params
        )

    def do_remote_op(self, handle: OperationHandle, service: str,
                     optype: str, indata_bytes: int = 0,
                     params: Optional[Dict[str, Any]] = None,
                     server: Optional[str] = None) -> Generator:
        """Process: RPC to the server chosen for this operation.

        ``server`` overrides the chosen server for this one RPC —
        parallel execution plans use it to fan branches out across
        multiple machines.
        """
        target = server if server is not None else handle.server
        if target is None:
            raise ValueError(
                f"plan {handle.plan_name!r} has no remote server; "
                "use do_local_op"
            )
        return (yield from self._do_op(
            handle, target, service, optype, indata_bytes, params
        ))

    def _do_op(self, handle: OperationHandle, dst: str, service: str,
               optype: str, indata_bytes: int,
               params: Optional[Dict[str, Any]]) -> Generator:
        # Client-side RPC issue overhead.
        yield self.host.cpu.submit(
            self.overhead.rpc_client_cycles, owner=handle.recording.owner
        ).done
        request = Request(
            service=service, optype=optype, opid=handle.opid,
            indata_bytes=indata_bytes, params=dict(params or {}),
        )
        try:
            response = yield from self.transport.call(
                self.host.name, dst, request,
                stats=handle.recording.stats, policy=self.retry_policy,
            )
        except Exception as exc:
            if not self._should_failover(handle, dst, exc):
                raise
            # The failover path re-issues this same RPC on the new
            # placement, merging usage on its own recursion.
            return (yield from self._failover_op(
                handle, dst, service, optype, indata_bytes, params, exc,
            ))
        self._merge_usage(handle, dst, response)
        return response

    # -- mid-operation failover ------------------------------------------------------

    def _should_failover(self, handle: OperationHandle, dst: str,
                         exc: BaseException) -> bool:
        """Whether a failed RPC warrants transparent re-placement.

        Forced alternatives never fail over: training sweeps and
        ablations force a placement precisely to measure *that*
        placement, and rely on the exception to mark it infeasible.
        Local RPCs (dst is this host) have nowhere better to go, and
        fatal errors would reproduce on any server.
        """
        return (
            self.failover_enabled
            and not handle.forced
            and not handle.finished
            and dst != self.host.name
            and is_retryable(exc)
        )

    def _failover_op(self, handle: OperationHandle, failed_server: str,
                     service: str, optype: str, indata_bytes: int,
                     params: Optional[Dict[str, Any]],
                     cause: BaseException) -> Generator:
        """Process: abort the failed attempt, re-place, re-issue the RPC.

        The paper's execution model is RPC-at-a-time, so the recovery
        unit is the in-flight RPC: abort the current attempt through the
        ordinary :meth:`abort_fidelity_op` path (stops monitors, frees
        the concurrency slot, discards the partial recording), pick the
        next-best alternative at the *same fidelity* — the application
        computed this RPC's parameters from ``handle.fidelity``, so the
        fidelity must not silently change under it — and re-issue on the
        new placement, degrading ultimately to a local plan.  Raises
        :class:`NoFeasibleAlternativeError` when every candidate has
        failed.
        """
        with self.telemetry.tracer.start_span(
            SPAN_FAILOVER, operation=handle.spec.name,
            opid=handle.opid, failed_server=failed_server,
            error=type(cause).__name__,
        ) as span:
            proxy = self._proxies.get(failed_server)
            if proxy is not None:
                proxy.mark_unreachable()
            # The failed server may still be embedded in cached spaces under
            # keys that predate the failure; drop them all rather than serve
            # a space that names a machine we just watched die.
            self._space_cache.invalidate()
            handle.failed_servers.add(failed_server)
            self.abort_fidelity_op(handle)
            try:
                alternative = self._failover_alternative(handle)
            except NoFeasibleAlternativeError:
                span.end(outcome="exhausted")
                raise
            except BaseException as exc:
                # A user utility factory or a predictor failed mid-choice.
                span.end(outcome="error", raised=type(exc).__name__)
                raise

            # Revive the handle in place: the application keeps driving the
            # same handle (its next do_remote_op, its end_fidelity_op), so
            # the replacement must be invisible from above.
            handle.alternative = alternative
            handle.failed_over = True
            handle.finished = False
            handle.prediction = None
            handle.solver_result = None
            recording = OperationRecording(
                owner=handle.recording.owner, started_at=self.sim.now,
            )
            handle.recording = recording
            self._note_concurrency(recording)
            self.monitors.start_all(recording)
            self.telemetry.metrics.counter(SPECTRA_FAILOVERS).inc()
            span.end(outcome="replaced", alternative=alternative.describe())

        # Re-choosing costs decision time, like any choose phase.
        yield self.host.cpu.submit(
            self.overhead.snapshot_per_server_cycles
            * len(self.server_names())
            + self.overhead.choose_per_eval_cycles,
            owner=recording.owner,
        ).done
        target = (alternative.server if alternative.plan.uses_remote
                  else self.host.name)
        return (yield from self._do_op(
            handle, target, service, optype, indata_bytes, params,
        ))

    def _failover_alternative(self, handle: OperationHandle) -> Alternative:
        """Next-best alternative at the handle's fidelity.

        Preference order: the same plan on the best-utility feasible
        server not yet failed, then the first local-capable plan.  The
        ordering is deterministic (utility, then server name) so the
        same fault schedule reproduces the same recovery path.
        """
        registered = self.operation(handle.spec.name)
        snapshot = self._take_snapshot()
        reachable = [
            s.name for s in snapshot.reachable_servers()
            if s.name not in handle.failed_servers
        ]
        fidelity = handle.fidelity
        plan = handle.alternative.plan
        if plan.uses_remote and reachable:
            estimator = DemandEstimator(
                handle.spec, registered.predictor, snapshot,
                handle.params, handle.data_object,
                always_reintegrate=self.always_reintegrate,
            )
            utility = self._utility(handle.spec, snapshot)
            scored = []
            for server in reachable:
                candidate = Alternative.build(plan, server, fidelity)
                prediction = estimator.predict(candidate)
                if not prediction.feasible:
                    continue
                scored.append((-utility(prediction), server, candidate))
            if scored:
                scored.sort(key=lambda entry: entry[:2])
                return scored[0][2]
        for fallback_plan in handle.spec.plans:
            if not fallback_plan.uses_remote:
                return Alternative.build(fallback_plan, None, fidelity)
        raise NoFeasibleAlternativeError(
            f"operation {handle.spec.name!r}: servers "
            f"{sorted(handle.failed_servers)} failed mid-operation and no "
            "remaining alternative can execute at fidelity "
            f"{fidelity!r}"
        )

    def _merge_usage(self, handle: OperationHandle, dst: str,
                     response: Response) -> None:
        recording = handle.recording
        local = dst == self.host.name
        for resource, value in response.usage.items():
            key = resource
            if local and resource == "cpu:remote":
                # Work done by the local Spectra server is local CPU; the
                # client-side CPU monitor can't see the service process's
                # cycles (separate owner tag), so fold them in here.
                key = "cpu:local"
            recording.usage[key] = recording.usage.get(key, 0.0) + value
        recording.file_accesses.update(response.file_accesses)

    # -- end_fidelity_op ---------------------------------------------------------------------

    def abort_fidelity_op(self, handle: OperationHandle) -> None:
        """Abandon an operation without updating the demand models.

        Call this after a mid-operation failure (a server crash inside
        ``do_remote_op``): it releases the operation's concurrency slot
        so subsequent operations are not forever marked concurrent, and
        discards the partial measurements, which describe a failed run
        no model should learn from.
        """
        if handle.finished:
            return
        handle.finished = True
        handle.recording.finished_at = self.sim.now
        # Monitors were started in begin_fidelity_op; stop them even
        # though the measurements are discarded, so no monitor is left
        # mid-observation (the recording-leak end_fidelity_op avoids).
        self.monitors.stop_all(handle.recording)
        self._drop_active(handle.recording)
        if self.telemetry.tracer.enabled:
            self.telemetry.tracer.start_span(
                SPAN_ABORT_OP, operation=handle.spec.name,
                opid=handle.opid, alternative=handle.alternative.describe(),
            ).end()
        self.telemetry.metrics.counter(SPECTRA_OPS_ABORTED).inc()

    def end_fidelity_op(self, handle: OperationHandle) -> Generator:
        """Process: finish the operation, update models, return a report."""
        if handle.finished:
            raise RuntimeError(
                f"operation #{handle.opid} already ended or aborted"
            )
        handle.finished = True
        with self.telemetry.tracer.start_span(
            SPAN_END_OP, operation=handle.spec.name, opid=handle.opid,
        ) as end_span:
            yield self.host.cpu.submit(
                self.overhead.end_cycles, owner=handle.recording.owner
            ).done
            recording = handle.recording
            recording.finished_at = self.sim.now
            self.monitors.stop_all(recording)
            self._drop_active(recording)

            registered = self.operation(handle.spec.name)
            # cpu:local from the monitor counts the overhead cycles charged
            # to the owner; service cycles were merged from responses.
            usage = dict(recording.usage)
            elapsed = usage["time:total"] = recording.elapsed or 0.0
            if not handle.failed_over:
                # A failed-over recording covers only the surviving attempt
                # (the pre-failure work was aborted and discarded), so it
                # would teach the demand model a fictitious cheap operation.
                discrete, continuous_fid = handle.spec.decision_context(
                    handle.alternative
                )
                registered.predictor.observe_operation(
                    timestamp=self.sim.now,
                    discrete=discrete,
                    continuous={**handle.params, **continuous_fid},
                    usage=usage,
                    file_accesses=recording.file_accesses,
                    data_object=handle.data_object,
                    concurrent=recording.concurrent,
                )
            if self.telemetry.tracer.enabled:
                self._trace_outcome(end_span, handle, usage, elapsed,
                                    recording.concurrent)
        self._count_outcome(handle, usage, elapsed)
        return OperationReport(
            opid=handle.opid,
            operation=handle.spec.name,
            alternative=handle.alternative,
            elapsed_s=elapsed,
            usage=usage,
            file_accesses=dict(recording.file_accesses),
            concurrent=recording.concurrent,
            prediction=handle.prediction,
            failed_over=handle.failed_over,
        )

    def _trace_outcome(self, end_span, handle: OperationHandle,
                       usage: Dict[str, float], elapsed: float,
                       concurrent: bool) -> None:
        """Close the end span with measured vs predicted outcomes."""
        energy = usage.get("energy:client", 0.0)
        attrs: Dict[str, Any] = {
            "alternative": handle.alternative.describe(),
            "elapsed_s": elapsed,
            "energy_j": energy,
            "concurrent": concurrent,
            "failed_over": handle.failed_over,
            "usage": dict(usage),
        }
        if handle.prediction is not None:
            attrs["predicted_time_s"] = handle.prediction.total_time_s
            attrs["predicted_energy_j"] = handle.prediction.energy_joules
        end_span.end(**attrs)

    def _count_outcome(self, handle: OperationHandle,
                       usage: Dict[str, float], elapsed: float) -> None:
        energy = usage.get("energy:client", 0.0)
        metrics = self.telemetry.metrics
        metrics.counter(SPECTRA_OPS_ENDED).inc()
        metrics.histogram(OP_ELAPSED_S).observe(elapsed)
        metrics.histogram(OP_ENERGY_J).observe(energy)
        if handle.prediction is not None and elapsed > 0:
            error = abs(handle.prediction.total_time_s - elapsed) / elapsed
            metrics.histogram(PREDICT_TIME_ABS_REL_ERR).observe(error)
