"""Unit tests for the network substrate (repro.network)."""

import random

import pytest

from repro.network import (
    Link,
    Network,
    NoRouteError,
    SharedMedium,
    TransferAbortedError,
    TransferLog,
    TransferRecord,
)
from repro.sim import Simulator


class TestLink:
    def test_transfer_time_is_latency_plus_serialization(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.5)

        def push():
            return (yield from link.transmit(2000))

        assert sim.run_process(push()) == pytest.approx(2.5)

    def test_zero_bytes_pays_latency_only(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.25)

        def push():
            return (yield from link.transmit(0))

        assert sim.run_process(push()) == pytest.approx(0.25)

    def test_concurrent_transfers_share_bandwidth(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.0)
        done = []

        def push(tag, nbytes):
            elapsed = yield from link.transmit(nbytes)
            done.append((tag, sim.now))

        sim.spawn(push("a", 1000))
        sim.spawn(push("b", 1000))
        sim.run()
        # Both share 1000 B/s: each finishes at t=2.
        assert dict(done) == {"a": 2.0, "b": 2.0}

    def test_bandwidth_change_affects_inflight(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.0)

        def push():
            return (yield from link.transmit(1000))

        sim.call_in(0.5, lambda: link.set_bandwidth(500.0))
        assert sim.run_process(push()) == pytest.approx(0.5 + 0.5 * 1000 / 500)

    def test_estimate_reflects_contention(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.1)
        assert link.estimate_transfer_time(1000) == pytest.approx(1.1)
        job = link._resource.submit(1e9)
        assert link.estimate_transfer_time(1000) == pytest.approx(2.1)

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 1000.0, -0.1)


class TestSharedMedium:
    def test_views_contend_globally(self, sim):
        medium = SharedMedium(sim, bandwidth_bps=1000.0,
                              default_latency_s=0.0)
        view1 = medium.attach()
        view2 = medium.attach()
        finished = {}

        def push(view, tag):
            yield from view.transmit(1000)
            finished[tag] = sim.now

        sim.spawn(push(view1, "v1"))
        sim.spawn(push(view2, "v2"))
        sim.run()
        # Different host pairs, same airtime: both take 2 s.
        assert finished == {"v1": 2.0, "v2": 2.0}

    def test_per_view_latency(self, sim):
        medium = SharedMedium(sim, 1000.0, default_latency_s=0.001)
        near = medium.attach(latency_s=0.001)
        far = medium.attach(latency_s=0.1)
        assert near.latency_s == 0.001
        assert far.latency_s == 0.1

    def test_bandwidth_change_propagates_to_views(self, sim):
        medium = SharedMedium(sim, 1000.0)
        view = medium.attach()
        medium.set_bandwidth(500.0)
        assert view.bandwidth_bps == 500.0


class TestNetworkTopology:
    @pytest.fixture
    def net(self, sim):
        network = Network(sim)
        network.register_host("a")
        network.register_host("b")
        network.connect("a", "b", Link(sim, 1000.0, 0.1))
        return network

    def test_transfer_logs_record(self, sim, net):
        def push():
            return (yield from net.transfer("a", "b", 500))

        elapsed = sim.run_process(push())
        assert elapsed == pytest.approx(0.6)
        assert len(net.log) == 1
        [record] = net.log.recent(0.0, endpoint=("a", "b"))
        assert (record.src, record.dst, record.nbytes) == ("a", "b", 500)
        assert record.elapsed == pytest.approx(0.6)

    def test_loopback_is_free_and_unlogged(self, sim, net):
        def push():
            return (yield from net.transfer("a", "a", 10_000))

        assert sim.run_process(push()) == 0.0
        assert len(net.log) == 0
        assert net.log.transfers == 0

    def test_interface_counters(self, sim, net):
        def push():
            yield from net.transfer("a", "b", 500)

        sim.run_process(push())
        assert net.interface("a").bytes_sent == 500
        assert net.interface("b").bytes_received == 500

    def test_tx_rx_power_callbacks(self, sim, net):
        events = []
        net.interface("a").on_tx_change = lambda active: events.append(
            ("tx", active)
        )
        net.interface("b").on_rx_change = lambda active: events.append(
            ("rx", active)
        )

        def push():
            yield from net.transfer("a", "b", 500)

        sim.run_process(push())
        assert events == [("tx", True), ("rx", True),
                          ("tx", False), ("rx", False)]

    def test_no_route_raises(self, sim, net):
        net.register_host("c")
        with pytest.raises(NoRouteError):
            net.link_between("a", "c")
        assert not net.connected("a", "c")

    def test_disconnect(self, sim, net):
        assert net.connected("a", "b")
        net.disconnect("a", "b")
        assert not net.connected("a", "b")

    def test_connect_requires_registered_hosts(self, sim, net):
        with pytest.raises(NoRouteError):
            net.connect("a", "ghost", Link(sim, 1.0, 0.0))

    def test_negative_transfer_rejected(self, sim, net):
        with pytest.raises(ValueError):
            list(net.transfer("a", "b", -1))


class TestTransferLog:
    def make_record(self, nbytes, t0=0.0, t1=1.0):
        return TransferRecord(src="a", dst="b", nbytes=nbytes,
                              started_at=t0, finished_at=t1)

    def test_recent_filters_by_time(self):
        log = TransferLog()
        log.append(self.make_record(100, 0.0, 1.0))
        log.append(self.make_record(200, 5.0, 6.0))
        assert [r.nbytes for r in log.recent(2.0, endpoint=("a", "b"))] == [200]
        # The window starts at *since* inclusive.
        assert [r.nbytes for r in log.recent(6.0, host="a")] == [200]

    def test_endpoint_filter_is_bidirectional(self):
        log = TransferLog()
        log.append(TransferRecord("a", "b", 1, 0, 1))
        log.append(TransferRecord("b", "a", 2, 0, 1))
        log.append(TransferRecord("a", "c", 3, 0, 1))
        for pair in (("a", "b"), ("b", "a")):
            assert [r.nbytes for r in log.recent(0.0, endpoint=pair)] == [1, 2]
        assert [r.nbytes for r in log.recent(0.0, host="a")] == [1, 2, 3]
        assert [r.nbytes for r in log.recent(0.0, host="c")] == [3]
        assert log.recent(0.0, host="ghost") == []

    def test_recent_needs_one_key(self):
        log = TransferLog()
        with pytest.raises(TypeError):
            log.recent(0.0)
        with pytest.raises(TypeError):
            log.recent(0.0, endpoint=("a", "b"), host="a")

    def test_out_of_order_append_rejected(self):
        log = TransferLog()
        log.append(self.make_record(1, 4.0, 5.0))
        with pytest.raises(ValueError):
            log.append(self.make_record(2, 0.0, 1.0))

    def test_bounded_size(self):
        # A 9 s horizon keeps the records finished in the last 9 s: those
        # at 16..25 s once the newest finished at 25 s.
        log = TransferLog()
        log.declare_window(9.0)
        for i in range(25):
            log.append(self.make_record(i, t0=i, t1=i + 1))
        assert len(log) == 10
        held = log.recent(float("-inf"), host="b")
        assert [r.nbytes for r in held] == list(range(15, 25))
        assert log.recent(float("-inf"), endpoint=("a", "b")) == held

    def test_busy_pair_does_not_evict_quiet_pair(self):
        """Regression: a global cap let one pair's traffic evict another's."""
        log = TransferLog()
        log.declare_window(10.0)
        for i in range(25):
            log.append(self.make_record(i, t0=i, t1=i + 1))
            if i == 19:
                log.append(TransferRecord("quiet", "server", 7, 19.0, 20.0))
        quiet = log.recent(15.0, endpoint=("quiet", "server"))
        assert [r.nbytes for r in quiet] == [7]
        assert [r.nbytes for r in log.recent(15.0, host="quiet")] == [7]

    def test_totals_count_trimmed_records(self):
        """Regression: report totals summed from the capped log undercounted."""
        log = TransferLog()
        log.declare_window(5.0)
        for i in range(25):
            log.append(self.make_record(1000 + i, t0=i, t1=i + 1))
        assert len(log) == 6
        assert log.transfers == 25
        assert log.bytes == sum(1000 + i for i in range(25))

    def test_horizon_is_the_longest_window(self):
        log = TransferLog()
        log.declare_window(2.0)
        log.declare_window(5.0)
        log.declare_window(3.0)
        for i in range(10):
            log.append(self.make_record(i, t0=i, t1=i + 1))
        # Newest at 10 s: the records at 5..10 s are within 5 s of it.
        assert [r.nbytes for r in log.recent(float("-inf"), host="a")] \
            == [4, 5, 6, 7, 8, 9]

    def test_a_longer_window_after_appends_is_refused(self):
        log = TransferLog()
        log.declare_window(2.0)
        log.append(self.make_record(1))
        log.declare_window(2.0)
        with pytest.raises(ValueError, match="horizon"):
            log.declare_window(3.0)


class TestLinkFailures:
    def test_zero_bandwidth_estimate_is_infinite(self, sim):
        """Regression: a jammed link used to divide by zero."""
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.1)
        link.set_bandwidth(0.0)
        assert link.estimate_transfer_time(500) == float("inf")
        # Zero bytes still only pay latency, even when jammed.
        assert link.estimate_transfer_time(0) == pytest.approx(0.1)

    def test_zero_bandwidth_estimate_on_medium_view(self, sim):
        medium = SharedMedium(sim, 1000.0, default_latency_s=0.01)
        view = medium.attach()
        medium.set_bandwidth(0.0)
        assert view.estimate_transfer_time(500) == float("inf")

    def test_network_estimate_propagates_infinity(self, sim):
        network = Network(sim)
        network.register_host("a")
        network.register_host("b")
        link = Link(sim, 1000.0, 0.1)
        network.connect("a", "b", link)
        link.set_bandwidth(0.0)
        assert network.estimate_transfer_time("a", "b", 500) == float("inf")

    def test_abort_transfers_fails_waiters(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.0)
        failures = []

        def push():
            try:
                yield from link.transmit(10_000)
            except TransferAbortedError as exc:
                failures.append(str(exc))

        sim.spawn(push())
        sim.spawn(push())
        sim.advance(0.5)
        assert link.abort_transfers("storm") == 2
        sim.run()
        assert failures == ["storm", "storm"]
        assert link.active_transfers == 0

    def test_medium_view_abort_is_pair_scoped(self, sim):
        medium = SharedMedium(sim, 1000.0, default_latency_s=0.0)
        view_ab = medium.attach(name="a-b")
        view_cd = medium.attach(name="c-d")
        fates = {}

        def push(view, key):
            try:
                yield from view.transmit(10_000)
                fates[key] = "done"
            except TransferAbortedError:
                fates[key] = "aborted"

        sim.spawn(push(view_ab, "ab"))
        sim.spawn(push(view_cd, "cd"))
        sim.advance(0.5)
        # Severing one pair leaves the rest of the medium's traffic up.
        assert view_ab.abort_transfers() == 1
        sim.run()
        assert fates == {"ab": "aborted", "cd": "done"}
        assert medium.active_transfers == 0

    def test_disconnect_aborts_in_flight_by_default(self, sim):
        network = Network(sim)
        network.register_host("a")
        network.register_host("b")
        network.connect("a", "b", Link(sim, 1000.0, 0.0))
        outcome = {}

        def push():
            try:
                yield from network.transfer("a", "b", 10_000)
            except TransferAbortedError as exc:
                outcome["error"] = str(exc)

        sim.spawn(push())
        sim.advance(0.5)
        removed = network.disconnect("a", "b")
        sim.run()
        assert "partition" in outcome["error"]
        assert removed is not None
        assert network.disconnect("a", "b") is None  # already gone

    def test_links_of_returns_adjacent_links(self, sim):
        network = Network(sim)
        for host in ("a", "b", "c"):
            network.register_host(host)
        ab = Link(sim, 1000.0, 0.0)
        bc = Link(sim, 1000.0, 0.0)
        network.connect("a", "b", ab)
        network.connect("b", "c", bc)
        links = network.links_of("b")
        assert links == {("a", "b"): ab, ("b", "c"): bc}
        assert network.links_of("a") == {("a", "b"): ab}


class TestDedicatedLinkIsAOnePairMedium:
    """A dedicated ``Link`` is a view over a private medium: it moves
    bytes, aborts and words its errors exactly as the one attachment of
    a ``SharedMedium`` with the same bandwidth, latency and name."""

    @staticmethod
    def drive(build, seed):
        sim = Simulator()
        link = build(sim)
        rng = random.Random(seed)
        outcomes = []

        def push(index, nbytes):
            try:
                elapsed = yield from link.transmit(nbytes)
                outcomes.append((index, "done", sim.now, elapsed))
            except TransferAbortedError as exc:
                outcomes.append((index, "aborted", sim.now, str(exc)))

        for index in range(12):
            sim.call_in(rng.uniform(0.0, 20.0),
                        lambda i=index, n=rng.choice((0, 50, 1000, 7919)):
                        sim.spawn(push(i, n)))
        for _ in range(3):
            sim.call_in(rng.uniform(0.0, 20.0), lambda f=rng.choice(
                (0.0, 0.5, 2.0)): link.set_bandwidth(1000.0 * f or 1e-3))
        aborts = []
        for reason in ("", "partition"):
            sim.call_in(rng.uniform(0.0, 20.0), lambda r=reason: aborts.append(
                (sim.now, link.active_transfers, link.abort_transfers(r),
                 link.estimate_transfer_time(500))))
        sim.run()
        return outcomes, aborts, link.active_transfers, link.bandwidth_bps

    @pytest.mark.parametrize("seed", range(8))
    def test_same_times_aborts_and_messages(self, seed):
        dedicated = self.drive(
            lambda sim: Link(sim, 1000.0, 0.01, name="a-b"), seed)
        attached = self.drive(
            lambda sim: SharedMedium(sim, 1000.0, default_latency_s=0.01,
                                     name="a-b").attach(name="a-b"), seed)
        assert attached == dedicated
        outcomes, aborts, _active, _bandwidth = dedicated
        assert len(outcomes) == 12
        assert sum(count for _at, _active, count, _eta in aborts) == sum(
            fate == "aborted" for _i, fate, _at, _value in outcomes)

    def test_default_abort_message_names_the_link(self, sim):
        link = Link(sim, 1000.0, 0.0, name="a-b")
        failures = []

        def push():
            try:
                yield from link.transmit(10_000)
            except TransferAbortedError as exc:
                failures.append(str(exc))

        sim.spawn(push())
        sim.advance(0.5)
        assert link.active_transfers == 1
        assert link._resource.name == "a-b.bw"
        assert link.abort_transfers() == 1
        sim.run()
        assert failures == ["transfer aborted: link 'a-b' severed"]
