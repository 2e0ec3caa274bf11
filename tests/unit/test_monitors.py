"""Unit tests for the resource monitors (repro.monitors)."""

import pytest

from repro.coda import CodaClient, FileServer
from repro.hosts import Host, IBM_560X, ITSY_V22, SERVER_A
from repro.monitors import (
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
    ServerStatus,
    SmartBatteryMonitor,
)
from repro.monitors.network import HOST_WIDE
from repro.network import Link, Network, TransferRecord


def blank_snapshot(now=0.0, host="client"):
    return ResourceSnapshot(
        taken_at=now,
        local_host=host,
        local_cpu_rate_cps=0.0,
        local_cache=CacheStateEstimate(cached_files={}, fetch_rate_bps=0.0),
        battery=BatteryEstimate(remaining_joules=None, importance=0.0),
    )


class TestLocalCPUMonitor:
    def test_predicts_idle_rate(self, sim):
        host = Host(sim, "h", SERVER_A)
        monitor = LocalCPUMonitor(host)
        snapshot = blank_snapshot()
        monitor.predict_avail(snapshot)
        assert snapshot.local_cpu_rate_cps == pytest.approx(400e6)

    def test_measures_operation_cycles(self, sim):
        host = Host(sim, "h", SERVER_A)
        monitor = LocalCPUMonitor(host)
        recording = OperationRecording(owner="op1")
        monitor.start_op(recording)

        def work():
            yield from host.cpu.run(1e8, owner="op1")
            yield from host.cpu.run(5e7, owner="someone-else")

        sim.run_process(work())
        monitor.stop_op(recording)
        assert recording.usage["cpu:local"] == pytest.approx(1e8)

    def test_stop_without_start_raises(self, sim):
        host = Host(sim, "h", SERVER_A)
        with pytest.raises(RuntimeError):
            LocalCPUMonitor(host).stop_op(OperationRecording(owner="x"))


class TestBatteryMonitors:
    def test_smart_monitor_reports_capacity_and_importance(self, sim):
        host = Host(sim, "h", ITSY_V22, battery_powered=True)
        host.goal_adaptation.set_importance(0.3)
        monitor = SmartBatteryMonitor(host)
        snapshot = blank_snapshot()
        monitor.predict_avail(snapshot)
        assert snapshot.battery.remaining_joules is not None
        assert snapshot.battery.importance == 0.3

    def test_wall_powered_reports_none(self, sim):
        host = Host(sim, "h", SERVER_A)
        monitor = MultimeterMonitor(host)
        snapshot = blank_snapshot()
        monitor.predict_avail(snapshot)
        assert snapshot.battery.remaining_joules is None

    def test_energy_measurement_brackets_operation(self, sim):
        host = Host(sim, "h", IBM_560X)
        monitor = MultimeterMonitor(host)
        recording = OperationRecording(owner="op")
        sim.run(until=5.0)  # pre-op idle burn must not count
        monitor.start_op(recording)
        sim.run(until=7.0)
        monitor.stop_op(recording)
        assert recording.usage["energy:client"] == pytest.approx(
            IBM_560X.idle_power_watts * 2.0
        )


class TestNetworkMonitor:
    @pytest.fixture
    def wired(self, sim):
        network = Network(sim)
        for name in ("client", "server"):
            network.register_host(name)
        network.connect("client", "server", Link(sim, 10_000.0, 0.05))
        return network

    def test_nominal_fallback_without_traffic(self, sim, wired):
        monitor = NetworkMonitor("client", wired)
        estimate = monitor.estimate_to("server", now=0.0)
        assert not estimate.observed
        assert estimate.bandwidth_bps == pytest.approx(10_000.0, rel=0.01)

    def test_passive_fit_recovers_link_parameters(self, sim, wired):
        monitor = NetworkMonitor("client", wired)

        def traffic():
            yield from wired.transfer("client", "server", 200)
            yield from wired.transfer("client", "server", 5_000)
            yield from wired.transfer("server", "client", 2_000)

        sim.run_process(traffic())
        estimate = monitor.estimate_to("server", now=sim.now)
        assert estimate.observed
        assert estimate.bandwidth_bps == pytest.approx(10_000.0, rel=0.05)
        assert estimate.latency_s == pytest.approx(0.05, rel=0.1)

    def test_fit_tracks_bandwidth_change(self, sim, wired):
        monitor = NetworkMonitor("client", wired)
        link = wired.link_between("client", "server")

        def traffic(sizes):
            for size in sizes:
                yield from wired.transfer("client", "server", size)

        sim.run_process(traffic([200, 4_000]))
        link.set_bandwidth(5_000.0)
        sim.run_process(traffic([200, 4_000, 200, 4_000, 200, 4_000]))
        estimate = monitor.estimate_to("server", now=sim.now)
        assert estimate.bandwidth_bps == pytest.approx(5_000.0, rel=0.25)

    def test_nominal_unreachable_host_predicts_dead_link(self, sim, wired):
        # Regression for the swallowed-except fix in _nominal: a missing
        # route is a *prediction* (NoRouteError -> zero bandwidth,
        # infinite latency), not an error.
        wired.register_host("island")
        monitor = NetworkMonitor("client", wired)
        estimate = monitor.estimate_to("island", now=0.0)
        assert not estimate.observed
        assert estimate.bandwidth_bps == 0.0
        assert estimate.latency_s == float("inf")

    def test_nominal_propagates_wiring_bugs(self, sim, wired):
        # ...but any failure other than NoRouteError is a bug in the
        # caller's wiring and must not masquerade as a dead link.
        class BrokenNetwork:
            log = wired.log

            def link_between(self, a, b):
                raise RuntimeError("mis-wired network object")

        monitor = NetworkMonitor("client", BrokenNetwork())
        with pytest.raises(RuntimeError, match="mis-wired"):
            monitor.estimate_to("server", now=0.0)

    def test_demand_copied_from_stats(self, sim, wired):
        monitor = NetworkMonitor("client", wired)
        recording = OperationRecording(owner="op")
        recording.stats.rpcs = 3
        recording.stats.bytes_sent = 1000
        recording.stats.bytes_received = 500
        monitor.start_op(recording)
        monitor.stop_op(recording)
        assert recording.usage["net:bytes"] == 1500.0
        assert recording.usage["net:rpcs"] == 3.0


class TestRemoteProxyMonitor:
    def test_status_updates_fill_snapshot(self):
        proxy = RemoteProxyMonitor("server-b")
        status = ServerStatus(
            host_name="server-b", cpu_rate_cps=933e6,
            cached_files={"/v/a": 100}, fetch_rate_bps=5e5, taken_at=10.0,
        )
        proxy.update_preds(status)
        snapshot = blank_snapshot(now=12.0)
        proxy.predict_avail(snapshot, "server-b")
        estimate = snapshot.servers["server-b"]
        assert estimate.reachable
        assert estimate.cpu_rate_cps == 933e6
        assert estimate.cache.cached_files == {"/v/a": 100}
        assert estimate.staleness_s == pytest.approx(2.0)

    def test_wrong_server_status_rejected(self):
        proxy = RemoteProxyMonitor("server-b")
        with pytest.raises(ValueError):
            proxy.update_preds(ServerStatus(host_name="other", cpu_rate_cps=1))

    def test_unpolled_server_is_unreachable(self):
        proxy = RemoteProxyMonitor("server-b")
        snapshot = blank_snapshot()
        proxy.predict_avail(snapshot, "server-b")
        assert not snapshot.servers["server-b"].reachable

    def test_mark_unreachable_clears_status(self):
        proxy = RemoteProxyMonitor("s")
        proxy.update_preds(ServerStatus(host_name="s", cpu_rate_cps=1.0))
        proxy.mark_unreachable()
        assert proxy.status is None

    def test_ignores_other_servers_in_snapshot(self):
        proxy = RemoteProxyMonitor("server-b")
        snapshot = blank_snapshot()
        proxy.predict_avail(snapshot, "server-a")
        assert "server-a" not in snapshot.servers


class TestFileCacheMonitor:
    def test_cache_state_and_accesses(self, sim):
        network = Network(sim)
        for name in ("client", "fs"):
            network.register_host(name)
        network.connect("client", "fs", Link(sim, 1e6, 0.001))
        server = FileServer(sim, "fs")
        server.create_file("/v/a", 100)
        coda = CodaClient(sim, "client", server, network)
        coda.warm("/v/a")
        monitor = FileCacheMonitor(coda)

        snapshot = blank_snapshot()
        monitor.predict_avail(snapshot)
        assert snapshot.local_cache.cached_files == {"/v/a": 100}
        assert snapshot.local_cache.fetch_rate_bps > 0

        recording = OperationRecording(owner="op")
        monitor.start_op(recording)

        def op():
            yield from coda.access("/v/a")

        sim.run_process(op())
        monitor.stop_op(recording)
        assert recording.file_accesses == {"/v/a": 100}


class TestMonitorSet:
    def test_proxies_run_before_decorators(self, sim):
        """The proxy must create the server entry before the network
        monitor decorates it (regression test for ordering)."""
        order = []

        class Creator(RemoteProxyMonitor):
            def predict_avail(self, snapshot, server_name=None):
                order.append("creator")
                super().predict_avail(snapshot, server_name)

        class Decorator(LocalCPUMonitor):
            predict_priority = 0

            def predict_avail(self, snapshot, server_name=None):
                if server_name is not None:
                    order.append("decorator")

        host = Host(sim, "h", SERVER_A)
        creator = Creator("srv")
        monitors = MonitorSet([Decorator(host), creator])
        monitors.predict_all(blank_snapshot(), ["srv"])
        assert order.index("creator") < order.index("decorator")

    def test_add_remove_get(self, sim):
        host = Host(sim, "h", SERVER_A)
        monitors = MonitorSet()
        cpu_monitor = LocalCPUMonitor(host)
        monitors.add(cpu_monitor)
        assert monitors.get("cpu") is cpu_monitor
        assert len(monitors) == 1
        assert monitors.remove("cpu")
        assert not monitors.remove("cpu")
        with pytest.raises(KeyError):
            monitors.get("cpu")


class TestMachineWideBandwidthFallback:
    def test_traffic_to_one_peer_informs_another(self, sim):
        """First-hop-is-bottleneck: with no traffic history for server B,
        the monitor falls back to the machine-wide fit (traffic to A),
        not the nominal link rate."""
        network = Network(sim)
        for name in ("client", "a", "b"):
            network.register_host(name)
        # Both peers sit behind the same 10 kB/s first hop, but B's link
        # nominally claims 80 kB/s (a stale advertised rate).
        network.connect("client", "a", Link(sim, 10_000.0, 0.01))
        network.connect("client", "b", Link(sim, 80_000.0, 0.01))
        monitor = NetworkMonitor("client", network)

        def traffic():
            yield from network.transfer("client", "a", 200)
            yield from network.transfer("client", "a", 5_000)
            yield from network.transfer("a", "client", 2_000)

        sim.run_process(traffic())
        estimate = monitor.estimate_to("b", now=sim.now)
        assert estimate.observed
        # The machine-wide fit (~10 kB/s) wins over B's nominal 80 kB/s.
        assert estimate.bandwidth_bps == pytest.approx(10_000.0, rel=0.1)

    def test_pair_specific_fit_still_preferred(self, sim):
        network = Network(sim)
        for name in ("client", "a", "b"):
            network.register_host(name)
        network.connect("client", "a", Link(sim, 10_000.0, 0.01))
        network.connect("client", "b", Link(sim, 40_000.0, 0.01))
        monitor = NetworkMonitor("client", network)

        def traffic():
            for peer, sizes in (("a", (200, 5_000)), ("b", (200, 5_000))):
                for size in sizes:
                    yield from network.transfer("client", peer, size)

        sim.run_process(traffic())
        # B has its own history: the estimate reflects B's faster link.
        estimate = monitor.estimate_to("b", now=sim.now)
        assert estimate.bandwidth_bps == pytest.approx(40_000.0, rel=0.15)


def count_fits(monitor):
    """Record the window length of every fit *monitor* runs from now on."""
    fits = []
    fit = monitor._fit

    def counting(records):
        fits.append(len(records))
        return fit(records)

    monitor._fit = counting
    return fits


class TestNetworkFitMemo:
    """The monitor refits a window only when the window has changed."""

    @pytest.fixture
    def network(self, sim):
        network = Network(sim)
        for name in ("client", "a", "b"):
            network.register_host(name)
            if name != "client":
                network.connect("client", name, Link(sim, 10_000.0, 0.01))
        return network

    @staticmethod
    def log(network, peer, nbytes, at):
        network.log.append(TransferRecord(
            "client", peer, nbytes, started_at=at - 0.01 - nbytes / 10_000.0,
            finished_at=at))

    @staticmethod
    def fresh_fit(network, peer, now):
        """What a monitor with no memo estimates."""
        return NetworkMonitor("client", network).estimate_to(peer, now)

    def test_unchanged_window_reuses_the_fit(self, network):
        self.log(network, "a", 200, 1.0)
        self.log(network, "a", 5_000, 2.0)
        monitor = NetworkMonitor("client", network)
        fits = count_fits(monitor)
        first = monitor.estimate_to("a", now=3.0)
        again = monitor.estimate_to("a", now=50.0)
        assert again is first
        assert fits == [2]
        assert first.observed

    def test_append_refits(self, network):
        self.log(network, "a", 200, 1.0)
        self.log(network, "a", 5_000, 2.0)
        monitor = NetworkMonitor("client", network)
        fits = count_fits(monitor)
        monitor.estimate_to("a", now=3.0)
        self.log(network, "a", 2_000, 4.0)
        estimate = monitor.estimate_to("a", now=5.0)
        assert fits == [2, 3]
        assert estimate == self.fresh_fit(network, "a", 5.0)

    def test_window_start_sliding_past_a_record_refits(self, network):
        for at, nbytes in ((0.0, 9_000), (10.0, 200), (20.0, 5_000)):
            self.log(network, "a", nbytes, at)
        monitor = NetworkMonitor("client", network)
        fits = count_fits(monitor)
        monitor.estimate_to("a", now=100.0)
        # The window (120 s) now starts after the first record; the last
        # record is the same one.
        estimate = monitor.estimate_to("a", now=125.0)
        assert fits == [3, 2]
        assert estimate == self.fresh_fit(network, "a", 125.0)

    def test_trimmed_index_refits(self, network):
        sizes = (200, 5_000, 2_000, 800)
        for i, nbytes in enumerate(sizes):
            self.log(network, "a", nbytes, float(i))
        monitor = NetworkMonitor("client", network)
        fits = count_fits(monitor)
        monitor.estimate_to("a", now=10.0)
        # Past the 120 s horizon of the first record, the fifth drops it
        # from the pair's index.
        self.log(network, "a", 3_000, 120.5)
        held = network.log.recent(float("-inf"), endpoint=("client", "a"))
        assert [r.nbytes for r in held] == [5_000, 2_000, 800, 3_000]
        estimate = monitor.estimate_to("a", now=120.5)
        assert fits == [4, 4]
        assert estimate == self.fresh_fit(network, "a", 120.5)
        assert monitor.estimate_to("a", now=121.0) is estimate
        assert fits == [4, 4]

    def test_pair_and_host_wide_windows_keep_separate_entries(self, network):
        self.log(network, "a", 200, 1.0)
        self.log(network, "a", 5_000, 2.0)
        self.log(network, "b", 2_000, 3.0)
        monitor = NetworkMonitor("client", network)
        fits = count_fits(monitor)
        # b has one record of its own, so it falls back to the host-wide
        # window (all three); a fits its own pair (two).
        to_b = monitor.estimate_to("b", now=4.0)
        to_a = monitor.estimate_to("a", now=4.0)
        assert fits == [3, 2]
        assert set(monitor._fits) == {"a", HOST_WIDE}
        assert to_a != to_b
        # Alternating between them refits neither.
        assert monitor.estimate_to("b", now=5.0) is to_b
        assert monitor.estimate_to("a", now=5.0) is to_a
        assert fits == [3, 2]
        assert to_b == self.fresh_fit(network, "b", 4.0)
        assert to_a == self.fresh_fit(network, "a", 4.0)
