"""Unit tests for the fault-injection subsystem (repro.faults)."""

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.network import Link, Network, SharedMedium, TransferAbortedError
from repro.telemetry import Telemetry


class FakeServer:
    def __init__(self):
        self.available = True


@pytest.fixture
def net(sim):
    """a -- b (serial link), a -- c and b -- c on a shared medium."""
    network = Network(sim)
    for host in ("a", "b", "c"):
        network.register_host(host)
    serial = Link(sim, 10_000.0, 0.001, name="serial")
    medium = SharedMedium(sim, 50_000.0, default_latency_s=0.002)
    network.connect("a", "b", serial)
    network.connect("a", "c", medium.attach())
    network.connect("b", "c", medium.attach())
    return network, serial, medium


def start_transfer(sim, network, src, dst, nbytes):
    """Spawn a transfer; returns a dict that records its fate."""
    fate = {}

    def proc():
        try:
            yield from network.transfer(src, dst, nbytes)
            fate["done"] = sim.now
        except TransferAbortedError as exc:
            fate["aborted"] = str(exc)

    sim.spawn(proc())
    return fate


class TestFaultEventValidation:
    def test_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEvent(0.0, "explode", "a")

    def test_negative_time(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "crash_server", "a")

    def test_server_action_rejects_pair_target(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "crash_server", ("a", "b"))

    def test_link_action_rejects_host_target(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "partition", "a")

    def test_degrade_needs_fraction_below_one(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "degrade_bandwidth", ("a", "b"))
        with pytest.raises(ValueError):
            FaultEvent(0.0, "degrade_bandwidth", ("a", "b"), value=1.0)
        FaultEvent(0.0, "degrade_bandwidth", ("a", "b"), value=0.0)

    def test_spike_needs_positive_seconds(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "spike_latency", ("a", "b"))
        with pytest.raises(ValueError):
            FaultEvent(0.0, "spike_latency", ("a", "b"), value=0.0)


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([
            FaultEvent(5.0, "heal", ("a", "b")),
            FaultEvent(1.0, "partition", ("a", "b")),
        ])
        assert [e.at_s for e in schedule] == [1.0, 5.0]
        assert len(schedule) == 2

    def test_shifted(self):
        schedule = FaultSchedule([FaultEvent(1.0, "crash_server", "a")])
        shifted = schedule.shifted(2.5)
        assert [e.at_s for e in shifted] == [3.5]


class TestInjectorServerFaults:
    def test_crash_severs_links_and_downs_server(self, sim, net):
        network, serial, _medium = net
        server = FakeServer()
        injector = FaultInjector(sim, network, {"b": server})
        fate = start_transfer(sim, network, "a", "b", 5_000)
        sim.advance(0.1)
        entry = injector.apply(FaultEvent(0.0, "crash_server", "b"))
        sim.run()
        assert entry.effective and entry.aborted_transfers == 1
        assert "crashed" in fate["aborted"]
        assert server.available is False
        assert not network.connected("a", "b")
        assert not network.connected("b", "c")

    def test_restart_restores_exact_links(self, sim, net):
        network, serial, _medium = net
        link_ab = network.link_between("a", "b")
        link_bc = network.link_between("b", "c")
        server = FakeServer()
        injector = FaultInjector(sim, network, {"b": server})
        injector.apply(FaultEvent(0.0, "crash_server", "b"))
        injector.apply(FaultEvent(0.0, "restart_server", "b"))
        assert server.available is True
        assert network.link_between("a", "b") is link_ab
        assert network.link_between("b", "c") is link_bc

    def test_crash_is_idempotent(self, sim, net):
        network, _serial, _medium = net
        injector = FaultInjector(sim, network, {"b": FakeServer()})
        first = injector.apply(FaultEvent(0.0, "crash_server", "b"))
        second = injector.apply(FaultEvent(0.0, "crash_server", "b"))
        assert first.effective and not second.effective
        # Restart after the double crash still heals fully.
        injector.apply(FaultEvent(0.0, "restart_server", "b"))
        assert network.connected("a", "b")

    def test_restart_without_crash_is_noop(self, sim, net):
        network, _serial, _medium = net
        injector = FaultInjector(sim, network)
        entry = injector.apply(FaultEvent(0.0, "restart_server", "b"))
        assert not entry.effective


class TestInjectorLinkFaults:
    def test_partition_and_heal_reuse_link_object(self, sim, net):
        network, serial, _medium = net
        injector = FaultInjector(sim, network)
        fate = start_transfer(sim, network, "a", "b", 5_000)
        sim.advance(0.1)
        injector.apply(FaultEvent(0.0, "partition", ("a", "b")))
        sim.run()
        assert "aborted" in fate
        assert not network.connected("a", "b")
        injector.apply(FaultEvent(0.0, "heal", ("a", "b")))
        assert network.link_between("a", "b") is serial

    def test_degrade_uses_nominal_not_current(self, sim, net):
        network, serial, _medium = net
        injector = FaultInjector(sim, network)
        injector.apply(FaultEvent(
            0.0, "degrade_bandwidth", ("a", "b"), value=0.25))
        assert serial.bandwidth_bps == pytest.approx(2_500.0)
        # A second degradation is relative to the *nominal* capacity,
        # not the already-degraded one.
        injector.apply(FaultEvent(
            0.0, "degrade_bandwidth", ("a", "b"), value=0.5))
        assert serial.bandwidth_bps == pytest.approx(5_000.0)
        injector.apply(FaultEvent(0.0, "restore_bandwidth", ("a", "b")))
        assert serial.bandwidth_bps == pytest.approx(10_000.0)

    def test_degrade_to_zero_stalls_until_restore(self, sim, net):
        network, _serial, _medium = net
        injector = FaultInjector(sim, network)
        fate = start_transfer(sim, network, "a", "b", 5_000)
        sim.advance(0.1)
        injector.apply(FaultEvent(0.0, "degrade_bandwidth", ("a", "b"),
                                  value=0.0))
        sim.advance(1_000.0)
        assert "done" not in fate and "aborted" not in fate
        injector.apply(FaultEvent(0.0, "restore_bandwidth", ("a", "b")))
        sim.run()
        assert "done" in fate

    def test_latency_spike_and_restore(self, sim, net):
        network, serial, _medium = net
        injector = FaultInjector(sim, network)
        nominal = serial.latency_s
        injector.apply(FaultEvent(0.0, "spike_latency", ("a", "b"),
                                  value=0.5))
        assert serial.latency_s == pytest.approx(nominal + 0.5)
        injector.apply(FaultEvent(0.0, "restore_latency", ("a", "b")))
        assert serial.latency_s == pytest.approx(nominal)

    def test_link_faults_on_missing_link_are_noops(self, sim, net):
        network, _serial, _medium = net
        injector = FaultInjector(sim, network)
        network.disconnect("a", "b")
        for action, value in (("partition", None),
                              ("degrade_bandwidth", 0.5),
                              ("spike_latency", 0.1)):
            entry = injector.apply(FaultEvent(0.0, action, ("a", "b"),
                                              value=value))
            assert not entry.effective


class TestInjectorScheduling:
    def test_installed_schedule_fires_in_sim_time(self, sim, net):
        network, _serial, _medium = net
        server = FakeServer()
        injector = FaultInjector(sim, network, {"b": server},
                                 telemetry=Telemetry())
        injector.install(FaultSchedule([
            FaultEvent(2.0, "crash_server", "b"),
            FaultEvent(5.0, "restart_server", "b"),
        ]))
        sim.advance(3.0)
        assert server.available is False
        sim.advance(3.0)
        assert server.available is True
        assert [e.at_s for e in injector.applied] == [2.0, 5.0]
        counter = injector.telemetry.metrics.counter("faults.injected")
        assert counter.value == 2

    def test_journal_describes_applications(self, sim, net):
        network, _serial, _medium = net
        injector = FaultInjector(sim, network, {"b": FakeServer()})
        injector.apply(FaultEvent(0.0, "crash_server", "b"))
        injector.apply(FaultEvent(0.0, "crash_server", "b"))
        journal = injector.journal()
        assert len(journal) == 2
        assert "crash_server b" in journal[0]
        assert journal[1].endswith("(no-op)")
