"""Property-based tests for fault recovery invariants (hypothesis).

Whatever fault lands mid-operation — a server crash, a partition, a
bandwidth collapse — the system must come back clean: no concurrency
slot left in the client's active set, no byte job still consuming link
bandwidth, and the next (fault-free) operation runs non-concurrent.
"""

from hypothesis import given, settings, strategies as st

from repro.coda import FileServer
from repro.core import (
    NoFeasibleAlternativeError,
    OperationSpec,
    SpectraNode,
    local_plan,
    remote_plan,
)
from repro.faults import FaultEvent, FaultInjector
from repro.hosts import IBM_560X, SERVER_B
from repro.network import Link, Network, SharedMedium
from repro.odyssey import FidelitySpec
from repro.rpc import NullService, RpcTransport
from repro.sim import Simulator


def build_testbed():
    """Minimal client + one server + file server (fresh sim)."""
    sim = Simulator()
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

    spec = OperationSpec("nullop", (local_plan(), remote_plan()),
                         FidelitySpec.fixed())
    sim.run_process(client.register_fidelity(spec))
    return sim, network, medium, client, server_node


def run_op(sim, client, indata_bytes=0):
    def op():
        handle = yield from client.begin_fidelity_op("nullop")
        if handle.plan_name == "remote":
            yield from client.do_remote_op(handle, "null", "null",
                                           indata_bytes=indata_bytes)
        else:
            yield from client.do_local_op(handle, "null", "null",
                                          indata_bytes=indata_bytes)
        report = yield from client.end_fidelity_op(handle)
        return handle, report
    return sim.run_process(op())


def assert_clean(sim, client, medium):
    """The recovery invariants: nothing leaked, next op runs clean."""
    assert client._active == []
    assert medium.active_transfers == 0
    _handle, report = run_op(sim, client)
    assert not report.concurrent


actions = st.sampled_from(["crash_server", "partition",
                           "degrade_bandwidth"])


@given(
    action=actions,
    delay_s=st.floats(min_value=0.0, max_value=5.0),
    outage_s=st.floats(min_value=0.5, max_value=60.0),
    indata_kb=st.integers(min_value=0, max_value=256),
)
@settings(max_examples=25, deadline=None)
def test_mid_op_fault_leaves_no_leaks(action, delay_s, outage_s, indata_kb):
    """Any fault during an unforced remote op: the op completes (via
    failover, or by stalling until recovery) and the system ends clean."""
    sim, network, medium, client, server_node = build_testbed()
    run_op(sim, client)  # explores the local bin

    value = 0.0 if action == "degrade_bandwidth" else None
    target = "srv" if action == "crash_server" else ("client", "srv")
    injector = FaultInjector(sim, network, {"srv": server_node.server})
    injector.schedule(FaultEvent(sim.now + delay_s, action, target, value))
    recovery = {"crash_server": "restart_server", "partition": "heal",
                "degrade_bandwidth": "restore_bandwidth"}[action]
    injector.schedule(FaultEvent(sim.now + delay_s + outage_s,
                                 recovery, target))

    # The second unforced op explores the remote bin, so the fault can
    # land before, during, or after its RPC depending on the draw.
    handle, report = run_op(sim, client, indata_bytes=indata_kb * 1024)
    assert handle.finished
    sim.run()  # drain the recovery event and any stragglers
    assert_clean(sim, client, medium)


@given(delay_s=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=15, deadline=None)
def test_crash_without_local_plan_fails_clean(delay_s):
    """When no alternative survives the fault, the typed error must
    propagate — and still leak nothing."""
    sim, network, medium, client, server_node = build_testbed()
    spec = OperationSpec("remoteonly", (remote_plan(),),
                         FidelitySpec.fixed())
    sim.run_process(client.register_fidelity(spec))
    injector = FaultInjector(sim, network, {"srv": server_node.server})
    injector.schedule(FaultEvent(sim.now + delay_s, "crash_server", "srv"))
    injector.schedule(FaultEvent(sim.now + delay_s + 120.0,
                                 "restart_server", "srv"))

    def op():
        handle = yield from client.begin_fidelity_op("remoteonly")
        yield from client.do_remote_op(handle, "null", "null",
                                       indata_bytes=512 * 1024)
        yield from client.end_fidelity_op(handle)

    try:
        sim.run_process(op())
    except NoFeasibleAlternativeError:
        pass
    sim.run()
    sim.run_process(client.poll_servers())
    assert_clean(sim, client, medium)
