"""Unit tests for the search-space cache and the proxy-order hot path.

Covers the decision-path performance layer's correctness obligations:

* :class:`SpaceCache` — keying on ``(operation, servers)``, LRU
  eviction, spec-identity staleness, explicit invalidation;
* :class:`SearchSpace` memoization — decode/neighbors return stable
  objects, so downstream per-alternative memos stay warm;
* the client keeps its proxy iteration order maintained (insertion in
  sorted order) instead of re-sorting per call, and that order is
  unchanged by failover;
* the client's cache invalidates on discovery and failover, and the
  cached decision is identical to the uncached one.
"""

import pytest

from repro.core import OperationSpec, SpectraNode, local_plan, remote_plan
from repro.core.estimate import DemandEstimator
from repro.coda import FileServer
from repro.hosts import IBM_560X, SERVER_B
from repro.network import Link, Network, SharedMedium
from repro.odyssey import FidelitySpec
from repro.rpc import NullService, RpcTransport, ServiceUnavailableError
from repro.solver import SearchSpace, SpaceCache


def make_spec(name="op", n_levels=3):
    return OperationSpec(
        name, (local_plan(), remote_plan()),
        fidelity=FidelitySpec.single("level", tuple(range(n_levels))),
    )


class TestSearchSpaceMemos:
    def test_decode_returns_identical_objects(self):
        space = SearchSpace(make_spec(), ["a", "b"])
        state = space.encode(space.all_alternatives()[0])
        assert space.decode(state) is space.decode(state)

    def test_decode_matches_enumeration(self):
        space = SearchSpace(make_spec(), ["a", "b"])
        for alternative in space.all_alternatives():
            assert space.decode(space.encode(alternative)) == alternative

    def test_neighbors_memoized_and_stable(self):
        space = SearchSpace(make_spec(), ["a", "b"])
        state = space.encode(space.all_alternatives()[0])
        first = space.neighbors(state)
        assert space.neighbors(state) is first
        assert all(isinstance(n, tuple) for n in first)

    def test_coordinate_sizes_computed_once(self):
        space = SearchSpace(make_spec(), ["a"])
        assert space.coordinate_sizes() is space.coordinate_sizes()


class TestSpaceCache:
    def test_hit_returns_same_space(self):
        cache = SpaceCache()
        spec = make_spec()
        first = cache.get(spec, ["a", "b"])
        assert cache.get(spec, ["a", "b"]) is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_servers_different_entries(self):
        cache = SpaceCache()
        spec = make_spec()
        assert cache.get(spec, ["a"]) is not cache.get(spec, ["a", "b"])
        # Order matters: the solver's tie-breaking depends on it.
        assert cache.get(spec, ["b", "a"]) is not cache.get(spec, ["a", "b"])

    def test_same_name_new_spec_object_misses(self):
        cache = SpaceCache()
        old = cache.get(make_spec(), ["a"])
        fresh_spec = make_spec()  # re-registration in tests
        assert cache.get(fresh_spec, ["a"]) is not old

    def test_lru_eviction(self):
        cache = SpaceCache(maxsize=2)
        spec_a, spec_b, spec_c = (make_spec(n) for n in ("a", "b", "c"))
        space_a = cache.get(spec_a, [])
        cache.get(spec_b, [])
        assert cache.get(spec_a, []) is space_a  # refresh a
        cache.get(spec_c, [])  # evicts b, the least recent
        assert cache.get(spec_a, []) is space_a
        assert len(cache) == 2

    def test_invalidate_clears(self):
        cache = SpaceCache()
        spec = make_spec()
        first = cache.get(spec, ["a"])
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get(spec, ["a"]) is not first

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            SpaceCache(maxsize=0)


@pytest.fixture
def three_server_world(sim):
    """Client + servers added out of order, to exercise order upkeep."""
    network = Network(sim)
    transport = RpcTransport(sim, network)
    fileserver = FileServer(sim, "fs")
    network.register_host("fs")
    client_node = SpectraNode(sim, network, transport, fileserver,
                              "client", IBM_560X)
    client_node.register_service(NullService())
    medium = SharedMedium(sim, 250_000.0, default_latency_s=0.002)
    network.connect("client", "fs", medium.attach())
    nodes = {}
    for name in ("srv-c", "srv-a", "srv-b"):  # deliberately unsorted
        node = SpectraNode(sim, network, transport, fileserver, name,
                           SERVER_B, with_client=False)
        node.register_service(NullService())
        network.connect("client", name, medium.attach())
        network.connect(name, "fs", Link(sim, 500_000.0, 0.001))
        nodes[name] = node
    client = client_node.require_client()
    for name in ("srv-c", "srv-a", "srv-b"):
        client.add_server(name)
    sim.run_process(client.poll_servers())
    return client, nodes


def run_op(sim, client, name="nullop", force=None):
    def op():
        handle = yield from client.begin_fidelity_op(name, force=force)
        if handle.plan_name == "remote":
            yield from client.do_remote_op(handle, "null", "null")
        else:
            yield from client.do_local_op(handle, "null", "null")
        yield from client.end_fidelity_op(handle)
        return handle
    return sim.run_process(op())


class TestProxyOrder:
    def test_server_names_sorted_without_resorting(self, sim,
                                                   three_server_world):
        client, _nodes = three_server_world
        assert client.server_names() == ["srv-a", "srv-b", "srv-c"]
        # The maintained order list *is* the source, not a sorted view.
        assert client._proxy_order == ["srv-a", "srv-b", "srv-c"]

    def test_iteration_order_unchanged_after_failover(self, sim,
                                                      three_server_world):
        client, nodes = three_server_world
        spec = OperationSpec("nullop", (local_plan(), remote_plan()),
                             FidelitySpec.fixed())
        sim.run_process(client.register_fidelity(spec))
        before = list(client._proxy_order)

        remote_at_a = next(a for a in spec.alternatives(["srv-a"])
                           if a.plan.uses_remote)

        def op():
            handle = yield from client.begin_fidelity_op(
                "nullop", force=remote_at_a,
            )
            # Kill the chosen server mid-operation to force failover.
            nodes["srv-a"].server.available = False
            try:
                yield from client.do_remote_op(handle, "null", "null")
            except ServiceUnavailableError:
                client.abort_fidelity_op(handle)
                return handle
            yield from client.end_fidelity_op(handle)
            return handle

        sim.run_process(op())
        assert list(client._proxy_order) == before
        assert client.server_names() == before
        nodes["srv-a"].server.available = True


class TestClientSpaceCache:
    def make_registered(self, sim, client):
        spec = OperationSpec("nullop", (local_plan(), remote_plan()),
                             FidelitySpec.fixed())
        sim.run_process(client.register_fidelity(spec))
        return spec

    def test_cache_reused_across_operations(self, sim, three_server_world):
        client, _nodes = three_server_world
        self.make_registered(sim, client)
        for _ in range(6):
            run_op(sim, client)
        assert client._space_cache.hits > 0

    def test_discovery_invalidates(self, sim, three_server_world):
        client, _nodes = three_server_world
        self.make_registered(sim, client)
        run_op(sim, client)
        client._space_cache.get(make_spec("other"), ["srv-a"])
        assert len(client._space_cache) > 0
        # add_server is discovery: the cache must drop everything.
        client.add_server("srv-new")
        assert len(client._space_cache) == 0

    def test_cached_decision_equals_uncached(self, sim, three_server_world):
        client, _nodes = three_server_world
        self.make_registered(sim, client)
        # Train every bin, then compare the alternative chosen through
        # the warm cache with one chosen from a freshly built space at
        # identical client state.
        for _ in range(4):
            run_op(sim, client)
        registered = client.operation("nullop")
        snapshot = client._take_snapshot()
        estimator = DemandEstimator(
            registered.spec, registered.predictor, snapshot, {}, None,
        )
        hits = client._space_cache.hits
        cached_pick = client._choose(registered, estimator, snapshot)[0]
        assert client._space_cache.hits == hits + 1
        client._space_cache.invalidate()
        misses = client._space_cache.misses
        uncached_pick = client._choose(registered, estimator, snapshot)[0]
        assert client._space_cache.misses == misses + 1
        assert cached_pick == uncached_pick
