"""Unit tests for the Spectra client and server (repro.core)."""

import pytest

from repro.coda import FileServer
from repro.core import (
    CONTROL_SERVICE,
    OperationSpec,
    ServerConfig,
    SpectraNode,
    local_plan,
    remote_plan,
)
from repro.network import Link, Network, SharedMedium
from repro.odyssey import FidelitySpec
from repro.hosts import IBM_560X, SERVER_B
from repro.rpc import (
    FunctionService,
    NullService,
    OpResult,
    Request,
    RetryPolicy,
    RpcTimeoutError,
    RpcTransport,
    next_opid,
)
from repro.rpc.messages import ServiceUnavailableError
from repro.telemetry.names import BEGIN_PHASE_S


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
    network.connect("srv", "fs",
                    Link(sim, 500_000.0, 0.001))
    for node in (client_node, server_node):
        node.register_service(NullService())
    client = client_node.require_client()
    client.add_server("srv")
    sim.run_process(client.poll_servers())
    return network, client_node, server_node, client


def null_spec():
    return OperationSpec("nullop", (local_plan(), remote_plan()),
                         FidelitySpec.fixed())


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


class TestRegistration:
    def test_register_returns_operation(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        registered = sim.run_process(client.register_fidelity(null_spec()))
        assert registered.spec.name == "nullop"
        assert client.operation("nullop") is registered

    def test_duplicate_registration_rejected(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        with pytest.raises(ValueError):
            sim.run_process(client.register_fidelity(null_spec()))

    def test_unknown_operation_rejected(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        with pytest.raises(KeyError):
            client.operation("ghost")

    def test_registration_takes_time(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        t0 = sim.now
        sim.run_process(client.register_fidelity(null_spec()))
        assert sim.now > t0  # charged cycles on the client CPU


class TestDecisions:
    def test_exploration_covers_every_bin_once(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        plans_seen = []
        for _ in range(3):
            handle, _report = run_null_op(sim, client)
            if handle.solver_result is None:
                plans_seen.append(handle.plan_name)
        assert plans_seen[:2] == ["local", "remote"]

    def test_solver_used_after_training(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        for _ in range(2):
            run_null_op(sim, client)
        handle, _report = run_null_op(sim, client)
        assert handle.solver_result is not None
        assert handle.prediction is not None
        # A null op is cheapest locally (RPC to a server costs time).
        assert handle.plan_name == "local"

    def test_forced_alternative_bypasses_solver(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        spec = client.operation("nullop").spec
        forced = spec.alternatives(["srv"])[1]
        handle, report = run_null_op(sim, client, force=forced)
        assert handle.forced and handle.alternative == forced
        assert report.alternative == forced

    def test_timings_recorded(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        handle, _report = run_null_op(sim, client)
        for key in ("file_cache_prediction", "snapshot", "choosing",
                    "consistency", "total"):
            assert key in handle.timings
        # every phase timed has its histogram name, and no other does
        assert handle.timings.keys() == BEGIN_PHASE_S.keys()
        assert handle.timings["total"] > 0

    def test_report_contains_usage(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        _handle, report = run_null_op(sim, client)
        assert report.usage["cpu:local"] > 0
        assert report.elapsed_s > 0
        assert report.usage["time:total"] == pytest.approx(report.elapsed_s)

    def test_remote_usage_merged(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        spec = client.operation("nullop").spec
        remote = next(a for a in spec.alternatives(["srv"])
                      if a.plan.uses_remote)
        _handle, report = run_null_op(sim, client, force=remote)
        assert "cpu:remote" in report.usage
        assert report.usage["net:bytes"] > 0
        assert report.usage["net:rpcs"] == 1.0

    def test_concurrent_operations_marked(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        spec = client.operation("nullop").spec
        local = spec.alternatives([])[0]
        reports = []

        def op():
            handle = yield from client.begin_fidelity_op("nullop",
                                                         force=local)
            yield from client.do_local_op(handle, "null", "null")
            report = yield from client.end_fidelity_op(handle)
            reports.append(report)

        sim.spawn(op())
        sim.spawn(op())
        sim.run()
        assert all(r.concurrent for r in reports)


class TestServerSide:
    def test_status_reports_cache_and_rate(self, sim, testbed):
        _net, _cn, server_node, _client = testbed
        status = server_node.server.status()
        assert status.host_name == "srv"
        assert status.cpu_rate_cps == pytest.approx(933e6)

    def test_unavailable_server_rejects_rpcs(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        server_node.server.available = False

        def call():
            request = Request(CONTROL_SERVICE, "_status", opid=next_opid())
            yield from client.transport.call("client", "srv", request)

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(call())

    def test_poll_marks_down_server_unreachable(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        assert client.known_servers() == ["srv"]
        server_node.server.available = False
        sim.run_process(client.poll_servers())
        assert client.known_servers() == []
        server_node.server.available = True
        sim.run_process(client.poll_servers())
        assert client.known_servers() == ["srv"]

    def test_unknown_service_rejected(self, sim, testbed):
        _net, _cn, _sn, client = testbed

        def call():
            request = Request("ghost-service", "x", opid=next_opid())
            yield from client.transport.call("client", "srv", request)

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(call())

    def test_reserved_service_name_rejected(self, sim, testbed):
        _net, _cn, server_node, _client = testbed
        bad = NullService()
        bad.name = CONTROL_SERVICE
        with pytest.raises(ValueError):
            server_node.register_service(bad)

    def test_overlapping_requests_of_one_operation_share_its_cycles(
            self, sim, testbed):
        # Two requests of one operation on one server (parallel engines
        # in a single-server world) share a CPU owner.  Each reports
        # every cycle that owner burned while it ran, and the owner stays
        # in the ledger until the later one ends.
        _net, _cn, server_node, _client = testbed
        server = server_node.server
        cpu = server_node.host.cpu

        def burn(ctx):
            yield from ctx.compute(ctx.params["cycles"])
            return OpResult()

        server.register_service(FunctionService("burn", burn))
        opid = next_opid()
        owner = f"burn#{opid}@srv"
        responses = {}

        def request(cycles):
            response = yield from server._dispatch(
                Request("burn", "burn", opid=opid,
                        params={"cycles": cycles}))
            responses[cycles] = response.usage["cpu:remote"]
            assert (owner in cpu._finished_cycles) == (len(responses) == 1)

        short, long = 4e6, 10e6
        sim.spawn(request(short))
        sim.spawn(request(long))
        sim.run()
        # Both dispatch overheads end together; then the two services
        # share the otherwise idle CPU until the short one ends, and the
        # long one runs on alone.
        assert responses[short] == pytest.approx(2 * short)
        assert responses[long] == pytest.approx(short + long)
        assert owner not in cpu._finished_cycles

    def test_abandoned_dispatch_stops_its_service_job(self, sim, testbed):
        # The caller's RPC timeout interrupts the dispatch mid-service:
        # nobody will read the result, so nothing should still run for it.
        _net, _cn, server_node, client = testbed
        cpu = server_node.host.cpu

        def burn(ctx):
            yield from ctx.compute(ctx.params["cycles"])
            return OpResult()

        server_node.server.register_service(FunctionService("burn", burn))
        opid = next_opid()
        owner = f"burn#{opid}@srv"
        policy = RetryPolicy(max_attempts=1, timeout_s=1.0)

        def call():
            # 10 s of work on the 933 MHz server, abandoned after 1 s.
            request = Request("burn", "burn", opid=opid,
                              params={"cycles": 9.33e9})
            with pytest.raises(RpcTimeoutError):
                yield from client.transport.call("client", "srv", request,
                                                 policy=policy)

        sim.run_process(call())
        sim.advance(0.5)  # the interrupt has reached the dispatch
        assert owner not in server_node.server._requests_by_owner
        assert not cpu._resource.jobs_of(owner)

    def test_local_host_not_addable_as_server(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        with pytest.raises(ValueError):
            client.add_server("client")


class TestPolling:
    def test_periodic_polling_refreshes_status(self, sim, testbed):
        _net, _cn, server_node, client = testbed
        client.start_polling(interval_s=5.0)
        server_node.server.available = False
        sim.advance(11.0)
        assert client.known_servers() == []
        server_node.server.available = True
        sim.advance(11.0)
        assert client.known_servers() == ["srv"]
        client.stop_polling()


class TestServerConfig:
    def test_from_dict_and_apply(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        config = ServerConfig.from_dict({"servers": ["x", "y"],
                                         "poll_interval_s": 2.0})
        config.apply(client)
        assert set(client.server_names()) >= {"x", "y"}

    def test_from_json(self):
        config = ServerConfig.from_json('{"servers": ["a"]}')
        assert config.servers == ("a",)
        assert config.poll_interval_s == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig.from_dict({"servers": "not-a-list"})
        with pytest.raises(ValueError):
            ServerConfig.from_dict({"servers": ["a", "a"]})
        with pytest.raises(ValueError):
            ServerConfig.from_dict({"servers": [""]})
        with pytest.raises(ValueError):
            ServerConfig.from_dict({"servers": [], "poll_interval_s": 0})


class TestOperationLifecycleGuards:
    def test_crashed_operation_does_not_taint_concurrency(self, sim,
                                                          testbed):
        """Regression: a mid-operation failure must not leak its
        recording into the active set (which would mark every later
        operation concurrent and starve the energy models)."""
        _net, _cn, server_node, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        spec = client.operation("nullop").spec
        remote = next(a for a in spec.alternatives(["srv"])
                      if a.plan.uses_remote)

        def doomed():
            handle = yield from client.begin_fidelity_op("nullop",
                                                         force=remote)
            server_node.server.available = False
            try:
                yield from client.do_remote_op(handle, "null", "null")
            except ServiceUnavailableError:
                client.abort_fidelity_op(handle)
                raise

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(doomed())
        server_node.server.available = True
        sim.run_process(client.poll_servers())

        _handle, report = run_null_op(sim, client)
        assert not report.concurrent

    def test_double_end_rejected(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))
        handle, _report = run_null_op(sim, client)

        def end_again():
            yield from client.end_fidelity_op(handle)

        with pytest.raises(RuntimeError, match="already ended"):
            sim.run_process(end_again())

    def test_abort_is_idempotent_and_blocks_end(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))

        def begin_only():
            return (yield from client.begin_fidelity_op("nullop"))

        handle = sim.run_process(begin_only())
        client.abort_fidelity_op(handle)
        client.abort_fidelity_op(handle)  # no-op, no error

        def end_it():
            yield from client.end_fidelity_op(handle)

        with pytest.raises(RuntimeError):
            sim.run_process(end_it())

    def test_abort_skips_model_update(self, sim, testbed):
        _net, _cn, _sn, client = testbed
        sim.run_process(client.register_fidelity(null_spec()))

        def begin_only():
            return (yield from client.begin_fidelity_op("nullop"))

        handle = sim.run_process(begin_only())
        client.abort_fidelity_op(handle)
        registered = client.operation("nullop")
        assert len(registered.predictor.log) == 0


class TestPredictorStoreWiring:
    def register(self, sim, client):
        return sim.run_process(client.register_fidelity(null_spec()))

    def test_register_warm_starts_from_store(self, sim, testbed, tmp_path):
        from repro.predictors import PredictorStore

        _network, _cn, _sn, client = testbed
        client.predictor_store = PredictorStore(tmp_path)
        self.register(sim, client)
        run_null_op(sim, client)
        run_null_op(sim, client)
        flushed = client.shutdown()
        assert set(flushed) == {"nullop"}
        # re-registration (a fresh process in real life) inherits the
        # two persisted executions instead of cold-starting
        client._operations.clear()
        registered = self.register(sim, client)
        assert len(registered.predictor.log) == 2

    def test_flush_without_store_is_noop(self, sim, testbed):
        _network, _cn, _sn, client = testbed
        self.register(sim, client)
        assert client.flush_predictors() == {}

    def test_store_dir_argument_builds_a_store(self, sim, testbed, tmp_path):
        from repro.core.client import SpectraClient
        from repro.predictors import PredictorStore

        _network, client_node, _sn, client = testbed
        fresh = SpectraClient(sim, client.host, client.transport,
                              client.coda, client.local_server,
                              store_dir=str(tmp_path))
        assert isinstance(fresh.predictor_store, PredictorStore)
        assert fresh.predictor_store.root == tmp_path
        ready = PredictorStore(tmp_path)
        assert SpectraClient(sim, client.host, client.transport,
                             client.coda, client.local_server,
                             store_dir=ready).predictor_store is ready

    def test_server_config_attaches_store(self, sim, testbed, tmp_path):
        from repro.predictors import PredictorStore

        _network, _cn, _sn, client = testbed
        config = ServerConfig.from_dict({
            "servers": [],
            "predictor_store": str(tmp_path / "cfg-store"),
        })
        config.apply(client)
        assert isinstance(client.predictor_store, PredictorStore)
        assert client.predictor_store.root == (tmp_path / "cfg-store")

    def test_server_config_rejects_bad_store(self):
        with pytest.raises(ValueError):
            ServerConfig.from_dict({"servers": [], "predictor_store": ""})
        with pytest.raises(ValueError):
            ServerConfig.from_dict({"servers": [], "predictor_store": 7})
