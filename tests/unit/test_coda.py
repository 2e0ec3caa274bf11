"""Unit tests for the Coda substrate (repro.coda)."""

import pytest

from repro.coda import (
    ChangeLog,
    CodaClient,
    DisconnectedError,
    FileCache,
    FileServer,
    REINTEGRATION_EFFICIENCY,
    volume_of,
)
from repro.network import Link, Network


class TestObjects:
    def test_volume_of(self):
        assert volume_of("/speech/lm.full") == "speech"
        assert volume_of("/latex-small/main.tex") == "latex-small"

    def test_volume_of_rejects_bad_paths(self):
        for bad in ("relative/path", "/", "/onlyvolume", "//x"):
            with pytest.raises(ValueError):
                volume_of(bad)

    def test_server_create_and_lookup(self, sim):
        server = FileServer(sim, "fs")
        server.create_file("/vol/a", 100)
        record = server.lookup("/vol/a")
        assert record.size == 100 and record.version == 1
        assert server.exists("/vol/a")
        assert not server.exists("/vol/b")

    def test_duplicate_create_rejected(self, sim):
        server = FileServer(sim, "fs")
        server.create_file("/vol/a", 100)
        with pytest.raises(FileExistsError):
            server.create_file("/vol/a", 100)

    def test_store_bumps_version(self, sim):
        server = FileServer(sim, "fs")
        server.create_file("/vol/a", 100)
        server.volume("vol").store("/vol/a", 150)
        record = server.lookup("/vol/a")
        assert record.size == 150 and record.version == 2


class TestFileCache:
    def test_insert_and_lookup(self):
        cache = FileCache(1000)
        cache.insert("/v/a", 300, version=1)
        assert "/v/a" in cache
        assert cache.used_bytes == 300

    def test_lru_eviction(self):
        cache = FileCache(1000)
        cache.insert("/v/a", 400, 1)
        cache.insert("/v/b", 400, 1)
        cache.get("/v/a")  # touch: a becomes MRU
        cache.insert("/v/c", 400, 1)  # evicts b
        assert "/v/a" in cache and "/v/c" in cache
        assert "/v/b" not in cache
        assert cache.evictions == 1

    def test_dirty_entries_pinned(self):
        cache = FileCache(1000)
        cache.insert("/v/a", 600, 1)
        cache.mark_dirty("/v/a", 600)
        with pytest.raises(RuntimeError):
            cache.insert("/v/b", 600, 1)  # cannot evict dirty a
        with pytest.raises(RuntimeError):
            cache.evict("/v/a")

    def test_oversized_file_rejected(self):
        cache = FileCache(100)
        with pytest.raises(ValueError):
            cache.insert("/v/huge", 200, 1)

    def test_mark_dirty_resizes(self):
        cache = FileCache(1000)
        cache.insert("/v/a", 100, 1)
        cache.mark_dirty("/v/a", 250)
        assert cache.used_bytes == 250

    def test_mark_clean_restores_evictability(self):
        cache = FileCache(1000)
        cache.insert("/v/a", 100, 1)
        cache.mark_dirty("/v/a", 100)
        cache.mark_clean("/v/a", version=2)
        assert cache.evict("/v/a")
        assert cache.used_bytes == 0

    def test_invalidate_keeps_entry(self):
        cache = FileCache(1000)
        cache.insert("/v/a", 100, 1)
        cache.invalidate("/v/a")
        entry = cache.get("/v/a")
        assert entry is not None and not entry.has_callback

    def test_dirty_uncached_rejected(self):
        with pytest.raises(KeyError):
            FileCache(100).mark_dirty("/v/ghost", 10)


class TestChangeLog:
    def test_stores_coalesce_per_path(self):
        cml = ChangeLog()
        cml.log_store("/v/a", 100, now=1.0)
        cml.log_store("/v/a", 300, now=2.0)
        assert len(cml) == 1
        records = cml.records_for("v")
        assert records[0].size == 300

    def test_pending_bytes_include_overhead(self):
        cml = ChangeLog()
        cml.log_store("/v/a", 100, 0.0)
        cml.log_store("/v/b", 200, 0.0)
        expected = 300 + 2 * ChangeLog.RECORD_OVERHEAD_BYTES
        assert cml.pending_bytes("v") == expected
        assert cml.total_pending_bytes() == expected

    def test_volume_separation(self):
        cml = ChangeLog()
        cml.log_store("/v1/a", 100, 0.0)
        cml.log_store("/v2/b", 200, 0.0)
        assert cml.dirty_volumes() == ["v1", "v2"]
        cml.clear_volume("v1")
        assert cml.dirty_volumes() == ["v2"]
        assert not cml.has_pending("/v1/a")
        assert cml.has_pending("/v2/b")


@pytest.fixture
def coda_setup(sim):
    network = Network(sim)
    network.register_host("client")
    network.register_host("fs")
    network.connect("client", "fs", Link(sim, 10_000.0, 0.01))
    server = FileServer(sim, "fs")
    server.create_file("/vol/data", 5_000)
    client = CodaClient(sim, "client", server, network,
                        cache_capacity_bytes=100_000)
    return network, server, client


class TestCodaClient:
    def test_miss_fetches_whole_file(self, sim, coda_setup):
        _net, _server, client = coda_setup

        def op():
            record = yield from client.access("/vol/data")
            return record

        record = sim.run_process(op())
        assert not record.hit
        # 0.01 latency + 5000/10000 serialization
        assert sim.now == pytest.approx(0.51)
        assert client.is_cached("/vol/data")

    def test_hit_is_free(self, sim, coda_setup):
        _net, _server, client = coda_setup
        client.warm("/vol/data")

        def op():
            return (yield from client.access("/vol/data"))

        record = sim.run_process(op())
        assert record.hit and sim.now == 0.0

    def test_missing_file_raises(self, sim, coda_setup):
        _net, _server, client = coda_setup

        def op():
            yield from client.access("/vol/ghost")

        with pytest.raises(FileNotFoundError):
            sim.run_process(op())

    def test_disconnected_miss_raises(self, sim, coda_setup):
        net, _server, client = coda_setup
        net.disconnect("client", "fs")

        def op():
            yield from client.access("/vol/data")

        with pytest.raises(DisconnectedError):
            sim.run_process(op())

    def test_disconnected_hit_still_works(self, sim, coda_setup):
        net, _server, client = coda_setup
        client.warm("/vol/data")
        net.disconnect("client", "fs")

        def op():
            return (yield from client.access("/vol/data"))

        assert sim.run_process(op()).hit

    def test_strongly_connected_write_through(self, sim, coda_setup):
        _net, server, client = coda_setup
        client.warm("/vol/data")

        def op():
            yield from client.modify("/vol/data", 6_000)

        sim.run_process(op())
        assert server.lookup("/vol/data").size == 6_000
        assert client.dirty_volumes() == []

    def test_weakly_connected_buffers(self, sim, coda_setup):
        _net, server, client = coda_setup
        client.weakly_connected = True
        client.warm("/vol/data")

        def op():
            yield from client.modify("/vol/data", 6_000)

        sim.run_process(op())
        # Invisible on the server until reintegration.
        assert server.lookup("/vol/data").size == 5_000
        assert client.dirty_volumes() == ["vol"]
        assert client.has_pending_store("/vol/data")

        def sync():
            yield from client.reintegrate_all()

        sim.run_process(sync())
        assert server.lookup("/vol/data").size == 6_000
        assert client.dirty_volumes() == []

    def test_reintegration_pays_efficiency_penalty(self, sim, coda_setup):
        _net, _server, client = coda_setup
        client.weakly_connected = True
        client.warm("/vol/data")

        def op():
            yield from client.modify("/vol/data", 5_000)
            start = sim.now
            yield from client.reintegrate_volume("vol")
            return sim.now - start

        elapsed = sim.run_process(op())
        logical = 5_000 + ChangeLog.RECORD_OVERHEAD_BYTES
        expected = 0.01 + (logical / REINTEGRATION_EFFICIENCY) / 10_000.0
        assert elapsed == pytest.approx(expected, rel=1e-3)

    def test_callback_break_invalidates_other_clients(self, sim, coda_setup):
        net, server, client = coda_setup
        net.register_host("other")
        net.connect("other", "fs", Link(sim, 10_000.0, 0.01))
        other = CodaClient(sim, "other", server, net)
        client.warm("/vol/data")
        other.warm("/vol/data")

        def op():
            yield from client.modify("/vol/data", 7_000)

        sim.run_process(op())
        # other's copy is stale now.
        assert not other.is_cached("/vol/data")

        def reread():
            return (yield from other.access("/vol/data"))

        record = sim.run_process(reread())
        assert record.size == 7_000

    def test_revalidation_regains_callback_cheaply(self, sim, coda_setup):
        _net, server, client = coda_setup
        client.warm("/vol/data")
        client.cache.invalidate("/vol/data")  # stale but unchanged

        def op():
            return (yield from client.access("/vol/data"))

        record = sim.run_process(op())
        assert record.hit
        # Only the tiny validation RPC travelled, not the 5 KB file.
        assert sim.now < 0.1
        assert client.is_cached("/vol/data")

    def test_cached_files_excludes_stale(self, sim, coda_setup):
        _net, _server, client = coda_setup
        client.warm("/vol/data")
        assert dict(client.cached_files()) == {"/vol/data": 5_000}
        client.cache.invalidate("/vol/data")
        assert client.cached_files() == []

    def test_fetch_rate_estimate(self, sim, coda_setup):
        net, _server, client = coda_setup
        rate = client.fetch_rate_estimate()
        assert 0 < rate <= 10_000.0
        net.disconnect("client", "fs")
        assert client.fetch_rate_estimate() == 0.0

    def test_access_log_slicing(self, sim, coda_setup):
        _net, _server, client = coda_setup
        client.warm("/vol/data")
        mark = client.access_log_mark()

        def op():
            yield from client.access("/vol/data")

        sim.run_process(op())
        accesses = client.accesses_since(mark)
        assert [a.path for a in accesses] == ["/vol/data"]

    def test_overlapping_marks(self, sim, coda_setup):
        """Each open mark sees every access since it was taken, in order;
        releasing the oldest trims what only it could see, and with no
        mark open nothing is kept."""
        _net, _server, client = coda_setup
        for path in ("/vol/a", "/vol/b", "/vol/c"):
            client.server.create_file(path, 100)
            client.warm(path)

        def read(path):
            sim.run_process(client.access(path))

        read("/vol/data")  # no mark open: not kept
        assert client._access_log == []
        first = client.access_log_mark()
        read("/vol/a")
        second = client.access_log_mark()
        read("/vol/b")
        assert [a.path for a in client.accesses_since(first)] == [
            "/vol/a", "/vol/b"]
        assert [a.path for a in client.accesses_since(second)] == ["/vol/b"]
        client.release_access_mark(first)
        assert [a.path for a in client._access_log] == ["/vol/b"]
        read("/vol/c")
        assert [a.path for a in client.accesses_since(second)] == [
            "/vol/b", "/vol/c"]
        with pytest.raises(ValueError):
            client.accesses_since(first)
        client.release_access_mark(second)
        assert client._access_log == [] and client._open_marks == {}
        with pytest.raises(ValueError):
            client.release_access_mark(second)

    def test_marks_released_newest_first(self, sim, coda_setup):
        _net, _server, client = coda_setup
        client.warm("/vol/data")
        first = client.access_log_mark()
        sim.run_process(client.access("/vol/data"))
        second = client.access_log_mark()
        twin = client.access_log_mark()  # same position, two holders
        assert twin == second
        client.release_access_mark(second)
        sim.run_process(client.access("/vol/data"))
        assert len(client.accesses_since(twin)) == 1
        assert len(client.accesses_since(first)) == 2
        client.release_access_mark(twin)
        assert len(client._access_log) == 2
        client.release_access_mark(first)
        assert client._access_log == []

    def test_flush(self, sim, coda_setup):
        _net, _server, client = coda_setup
        client.warm("/vol/data")
        assert client.flush("/vol/data")
        assert not client.is_cached("/vol/data")
        assert not client.flush("/vol/data")  # second flush: nothing there
