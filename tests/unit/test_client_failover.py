"""Unit tests for mid-operation failover and the poll-loop hardening.

Covers the chaos-hardening regressions:

* ``begin_fidelity_op`` with zero executable alternatives raises the
  typed :class:`NoFeasibleAlternativeError` (not IndexError) and leaks
  no concurrency slot or mid-observation monitor;
* a stop/start polling cycle never leaves two loops polling;
* the background poll loop survives non-ServiceUnavailable RPC errors
  and garbled status payloads;
* an unforced remote operation whose server dies mid-RPC completes
  transparently on the next-best placement (ultimately local), while
  forced operations keep raising.
"""

import pytest

from repro.coda import FileServer
from repro.core import (
    NoFeasibleAlternativeError,
    OperationSpec,
    SpectraNode,
    local_plan,
    remote_plan,
)
from repro.core.estimate import DemandEstimator
from repro.core.utility import DefaultUtility
from repro.hosts import IBM_560X, SERVER_B
from repro.monitors import NetworkEstimate
from repro.network import Link, Network, SharedMedium
from repro.odyssey import FidelitySpec
from repro.rpc import (
    NullService,
    Response,
    RpcError,
    RpcTransport,
    ServiceUnavailableError,
)
from repro.sim import Interrupt, Simulator, Timeout
from repro.solver.space import SearchSpace
from repro.telemetry import SpanTracer, Telemetry
from repro.telemetry.names import SPAN_FAILOVER


@pytest.fixture
def testbed(sim):
    """Minimal client + one server + file server."""
    network = Network(sim)
    transport = RpcTransport(sim, network)
    fileserver = FileServer(sim, "fs")
    network.register_host("fs")
    client_node = SpectraNode(sim, network, transport, fileserver,
                              "client", IBM_560X)
    server_node = SpectraNode(sim, network, transport, fileserver,
                              "srv", SERVER_B, with_client=False)
    medium = SharedMedium(sim, 250_000.0, default_latency_s=0.002)
    network.connect("client", "srv", medium.attach())
    network.connect("client", "fs", medium.attach())
    network.connect("srv", "fs", Link(sim, 500_000.0, 0.001))
    for node in (client_node, server_node):
        node.register_service(NullService())
    client = client_node.require_client()
    client.add_server("srv")
    sim.run_process(client.poll_servers())
    return network, client_node, server_node, client


def null_spec():
    return OperationSpec("nullop", (local_plan(), remote_plan()),
                         FidelitySpec.fixed())


def remote_only_spec():
    return OperationSpec("remoteonly", (remote_plan(),), FidelitySpec.fixed())


def traced_testbed(records, server_names):
    """Client + servers + file server sharing a span-recording tracer.

    Returns ``(sim, client, {name: server node})``.
    """
    telemetry = Telemetry(tracer=SpanTracer(records.append))
    sim = Simulator(telemetry=telemetry)
    network = Network(sim)
    transport = RpcTransport(sim, network, telemetry=telemetry)
    fileserver = FileServer(sim, "fs")
    network.register_host("fs")
    client_node = SpectraNode(sim, network, transport, fileserver,
                              "client", IBM_560X, telemetry=telemetry)
    medium = SharedMedium(sim, 250_000.0, default_latency_s=0.002)
    network.connect("client", "fs", medium.attach())
    client_node.register_service(NullService())
    client = client_node.require_client()
    servers = {}
    for name in server_names:
        servers[name] = SpectraNode(sim, network, transport, fileserver,
                                    name, SERVER_B, with_client=False,
                                    telemetry=telemetry)
        network.connect("client", name, medium.attach())
        network.connect(name, "fs", Link(sim, 500_000.0, 0.001))
        servers[name].register_service(NullService())
        client.add_server(name)
    sim.run_process(client.poll_servers())
    return sim, client, servers


def run_null_op(sim, client, force=None):
    def op():
        handle = yield from client.begin_fidelity_op("nullop", force=force)
        if handle.plan_name == "remote":
            yield from client.do_remote_op(handle, "null", "null")
        else:
            yield from client.do_local_op(handle, "null", "null")
        report = yield from client.end_fidelity_op(handle)
        return handle, report
    return sim.run_process(op())


class TestNoFeasibleAlternative:
    def test_empty_space_raises_typed_error(self, sim, testbed):
        """Regression: every plan remote + no reachable server used to
        die with IndexError on ``alternatives[0]``."""
        _net, _cn, server_node, client = testbed
        sim.run_process(client.register_fidelity(remote_only_spec()))
        server_node.server.available = False
        sim.run_process(client.poll_servers())
        assert client.known_servers() == []

        def begin():
            yield from client.begin_fidelity_op("remoteonly")

        with pytest.raises(NoFeasibleAlternativeError):
            sim.run_process(begin())

    def test_failed_begin_leaks_nothing(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        sim.run_process(client.register_fidelity(remote_only_spec()))
        sim.run_process(client.register_fidelity(null_spec()))
        server_node.server.available = False
        sim.run_process(client.poll_servers())

        def begin():
            yield from client.begin_fidelity_op("remoteonly")

        with pytest.raises(NoFeasibleAlternativeError):
            sim.run_process(begin())
        assert client._active == []

        # A later clean operation is not marked concurrent by a leaked
        # recording, and its monitors start fresh.
        _handle, report = run_null_op(sim, client)
        assert not report.concurrent

    def test_error_is_a_runtime_error(self):
        assert issubclass(NoFeasibleAlternativeError, RuntimeError)


class TestPollingGeneration:
    def test_stop_start_cycle_keeps_one_loop(self, sim, testbed):
        """Regression: a loop parked on its sleep when polling restarts
        must retire instead of doubling the poll rate."""
        _net, _cn, _sn, client = testbed
        calls = []
        original = client.poll_servers

        def counting():
            calls.append(sim.now)
            return (yield from original())

        client.poll_servers = counting
        client.start_polling(interval_s=5.0)
        sim.advance(2.0)       # first loop polled at t=0, parked to t=5
        client.stop_polling()
        client.start_polling(interval_s=5.0)  # second loop polls at t=2
        sim.advance(28.0)
        client.stop_polling()
        sim.run()

        restarted = [t for t in calls if t >= 2.0]
        gaps = [b - a for a, b in zip(restarted, restarted[1:])]
        # One poll per interval: were the stale loop still alive it
        # would wake at t=5 and halve the gaps.
        assert all(gap >= 4.9 for gap in gaps)

    def test_stop_polling_stops(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        calls = []
        original = client.poll_servers

        def counting():
            calls.append(sim.now)
            return (yield from original())

        client.poll_servers = counting
        client.start_polling(interval_s=5.0)
        sim.advance(6.0)
        client.stop_polling()
        seen = len(calls)
        sim.advance(30.0)
        assert len(calls) == seen


class TestPollSurvivesErrors:
    def _bad_dispatcher(self, result):
        def dispatch(request):
            def proc():
                yield Timeout(0.001)
                return result() if callable(result) else result
            return proc()
        return dispatch

    def test_rpc_error_marks_unreachable_not_dead(self, sim, testbed):
        """Regression: a non-ServiceUnavailable RpcError killed the
        background poll loop."""
        _net, _cn, server_node, client = testbed
        client.telemetry = Telemetry()
        transport = client.transport
        original = transport._dispatchers["srv"]
        # A dispatcher returning a non-Response makes _exchange raise a
        # plain RpcError.
        transport.bind("srv", self._bad_dispatcher("garbage"))

        client.start_polling(interval_s=5.0)
        sim.advance(2.0)
        assert client.known_servers() == []
        errors = client.telemetry.metrics.counter("spectra.poll.errors")
        assert errors.value >= 1

        # The loop is still alive: once the server answers sanely again,
        # the next poll restores it to the candidate set.
        transport.bind("srv", original)
        sim.advance(10.0)
        assert client.known_servers() == ["srv"]
        client.stop_polling()

    def test_garbled_status_payload_survived(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        client.telemetry = Telemetry()
        transport = client.transport
        original = transport._dispatchers["srv"]
        transport.bind("srv", self._bad_dispatcher(
            lambda: Response(opid=0, result="not-a-status")
        ))

        sim.run_process(client.poll_servers())
        assert client.known_servers() == []
        errors = client.telemetry.metrics.counter("spectra.poll.errors")
        assert errors.value == 1

        transport.bind("srv", original)
        sim.run_process(client.poll_servers())
        assert client.known_servers() == ["srv"]

    def test_down_server_still_not_counted_as_error(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        client.telemetry = Telemetry()
        server_node.server.available = False
        sim.run_process(client.poll_servers())
        assert client.known_servers() == []
        errors = client.telemetry.metrics.counter("spectra.poll.errors")
        assert errors.value == 0


class TestFailover:
    def _train_local_bin(self, sim, client):
        sim.run_process(client.register_fidelity(null_spec()))
        handle, _report = run_null_op(sim, client)   # explores local
        assert handle.plan_name == "local"

    def test_unforced_remote_op_fails_over_to_local(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        client.telemetry = Telemetry()
        self._train_local_bin(sim, client)
        registered = client.operation("nullop")
        observed_before = len(registered.predictor.log)

        def op():
            # Second unforced op explores the remote bin: remote@srv.
            handle = yield from client.begin_fidelity_op("nullop")
            assert handle.plan_name == "remote" and not handle.forced
            server_node.server.available = False
            yield from client.do_remote_op(handle, "null", "null")
            report = yield from client.end_fidelity_op(handle)
            return handle, report

        handle, report = sim.run_process(op())
        assert report.failed_over and handle.failed_over
        assert handle.plan_name == "local"
        assert "srv" in handle.failed_servers
        metrics = client.telemetry.metrics
        assert metrics.counter("spectra.failovers").value == 1
        assert metrics.counter("spectra.ops.aborted").value == 1

        # The surviving attempt's recording must not train the demand
        # model — it describes half an operation.
        assert len(registered.predictor.log) == observed_before

    def test_failover_preserves_fidelity(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        self._train_local_bin(sim, client)

        def op():
            handle = yield from client.begin_fidelity_op("nullop")
            fidelity_before = handle.fidelity
            server_node.server.available = False
            yield from client.do_remote_op(handle, "null", "null")
            yield from client.end_fidelity_op(handle)
            return fidelity_before, handle.fidelity

        before, after = sim.run_process(op())
        assert before == after

    def test_forced_operation_still_raises(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        spec = client.operation("nullop").spec
        remote = next(a for a in spec.alternatives(["srv"])
                      if a.plan.uses_remote)

        def op():
            handle = yield from client.begin_fidelity_op("nullop",
                                                         force=remote)
            server_node.server.available = False
            try:
                yield from client.do_remote_op(handle, "null", "null")
            except ServiceUnavailableError:
                client.abort_fidelity_op(handle)
                raise

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(op())

    def test_failover_disabled_raises(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        self._train_local_bin(sim, client)
        client.failover_enabled = False

        def op():
            handle = yield from client.begin_fidelity_op("nullop")
            server_node.server.available = False
            try:
                yield from client.do_remote_op(handle, "null", "null")
            except ServiceUnavailableError:
                client.abort_fidelity_op(handle)
                raise

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(op())

    def test_fatal_rpc_error_not_failed_over(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        self._train_local_bin(sim, client)

        def bad_dispatch(request):
            def proc():
                yield Timeout(0.001)
                return "garbage"  # _exchange raises a fatal RpcError
            return proc()

        def op():
            handle = yield from client.begin_fidelity_op("nullop")
            client.transport.bind("srv", bad_dispatch)
            try:
                yield from client.do_remote_op(handle, "null", "null")
            except RpcError:
                client.abort_fidelity_op(handle)
                raise

        with pytest.raises(RpcError):
            sim.run_process(op())

    def test_remote_only_spec_exhausts_to_typed_error(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        sim.run_process(client.register_fidelity(remote_only_spec()))

        def op():
            handle = yield from client.begin_fidelity_op("remoteonly")
            server_node.server.available = False
            yield from client.do_remote_op(handle, "null", "null")

        with pytest.raises(NoFeasibleAlternativeError):
            sim.run_process(op())
        assert client._active == []


class TestFailoverSpan:
    def test_span_ends_when_rechoosing_raises(self):
        """Regression: an error other than
        :class:`NoFeasibleAlternativeError` while re-choosing, here from
        a user utility factory, used to leave the failover span open.
        The span is now a `with` item, and the rechoose error still
        lands on it as ``outcome="error"``."""
        records = []
        sim, client, servers = traced_testbed(records, ("srv", "srv2"))
        sim.run_process(client.register_fidelity(null_spec()))

        class UtilityDown(RuntimeError):
            pass

        armed = []

        def utility_factory(spec, importance):
            if armed:
                raise UtilityDown("no utility during failover")
            return DefaultUtility(spec, importance)

        client.utility_factory = utility_factory
        handle, _report = run_null_op(sim, client)   # explores local
        assert handle.plan_name == "local"

        def op():
            handle = yield from client.begin_fidelity_op("nullop")
            assert handle.plan_name == "remote"
            servers[handle.alternative.server].server.available = False
            armed.append(True)
            yield from client.do_remote_op(handle, "null", "null")

        with pytest.raises(UtilityDown):
            sim.run_process(op())
        spans = [record for record in records
                 if record["name"] == SPAN_FAILOVER]
        assert len(spans) == 1
        assert spans[0]["attrs"]["outcome"] == "error"
        assert spans[0]["attrs"]["raised"] == "UtilityDown"
        assert client._active == []


class TestZeroBandwidthInfeasible:
    def test_zero_bandwidth_server_scores_infeasible(self, sim, testbed):
        """Satellite of the estimate_transfer_time fix: a zero-bandwidth
        path must surface as solver infeasibility, never as a crash."""
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        for _ in range(2):
            run_null_op(sim, client)  # train both bins

        registered = client.operation("nullop")
        snapshot = client._take_snapshot()
        # The jammed-link estimate a zero-capacity link produces.
        snapshot.server("srv").network = NetworkEstimate(
            bandwidth_bps=0.0, latency_s=float("inf"), observed=False,
        )
        estimator = DemandEstimator(registered.spec, registered.predictor,
                                    snapshot, {}, None)
        space = SearchSpace(registered.spec, ["srv"])
        remote = next(a for a in space.all_alternatives()
                      if a.plan.uses_remote)
        prediction = estimator.predict(remote)
        assert not prediction.feasible
        assert prediction.total_time_s == float("inf")

        utility = DefaultUtility(registered.spec, 0.0)
        result = client.solver.solve(space, estimator.predict, utility)
        assert result.found
        assert not result.best.alternative.plan.uses_remote


class TestMidBeginInterrupt:
    def test_interrupted_begin_leaks_nothing(self):
        """Regression: a process killed
        while ``begin_fidelity_op`` is parked at a CPU or reintegration
        yield used to leak the started monitor recording, the op span,
        and the open phase span, and left the handle's recording in
        ``_active`` — poisoning every later operation's concurrency
        figure.  The generic unwind must stop the monitors, release the
        slot, and close the span before propagating."""
        records = []
        sim, client, _servers = traced_testbed(records, ("srv",))
        sim.run_process(client.register_fidelity(null_spec()))

        process = sim.spawn(client.begin_fidelity_op("nullop"))
        # Run only the zero-delay events: begin starts its monitors,
        # opens its span, and parks at the first CPU yield.
        sim.run(until=sim.now)
        assert process.alive
        assert client._active != []
        process.interrupt("killed mid-begin")
        sim.run()

        assert process.triggered and not process.ok
        assert isinstance(process.value, Interrupt)

        # Nothing half-open left behind.
        assert client._active == []
        spans = [record for record in records
                 if record["name"] == "begin_fidelity_op"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["error"] == "Interrupt"

        # A later clean operation starts monitors fresh and is not
        # marked concurrent by the dead recording.
        _handle, report = run_null_op(sim, client)
        assert report.concurrent is False
