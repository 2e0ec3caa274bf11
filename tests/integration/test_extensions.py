"""Integration tests for the extension features:

* parallel execution plans (the paper's stated future work),
* dynamic server discovery (designed but unshipped in the paper),
* trickle reintegration,
* learned-model persistence across restarts.
"""

import pytest

from repro.apps import SpeechWorkload
from repro.coda import FileServer
from repro.core import OperationSpec, SpectraNode, local_plan, remote_plan
from repro.discovery import DirectoryService, start_advertising, start_discovery
from repro.experiments.parallel import run_parallel_cell
from repro.experiments.speech import _build as build_speech
from repro.hosts import IBM_560X, SERVER_B
from repro.network import Link, Network, SharedMedium
from repro.odyssey import FidelitySpec
from repro.rpc import NullService, RpcTransport


class TestParallelExecution:
    @pytest.fixture(scope="class")
    def twin_cell(self):
        return run_parallel_cell(18, twin=True)

    @pytest.fixture(scope="class")
    def unequal_cell(self):
        return run_parallel_cell(18, twin=False)

    def test_parallel_beats_sequential_on_twin_servers(self, twin_cell):
        """'the three engines could be executed in parallel on different
        servers' — with comparable servers the speedup is real."""
        assert twin_cell.speedup >= 1.3

    def test_spectra_adopts_the_parallel_plan(self, twin_cell):
        assert "parallel-engines" in twin_cell.spectra_choice

    def test_parallel_useless_with_unequal_servers(self, unequal_cell):
        """An even split gated by a 400 MHz machine beats nothing; the
        solver must not be seduced."""
        assert unequal_cell.speedup <= 1.15
        assert "parallel-engines" not in unequal_cell.spectra_choice

    def test_parallel_preserves_fidelity_on_long_sentences(self):
        """The headline benefit: full quality where sequential execution
        had to shed the glossary engine."""
        cell = run_parallel_cell(27, twin=True)
        assert "glossary=on" in cell.spectra_choice


class TestServiceDiscovery:
    @pytest.fixture
    def world(self, sim):
        network = Network(sim)
        transport = RpcTransport(sim, network)
        fileserver = FileServer(sim, "fs")
        network.register_host("fs")
        client_node = SpectraNode(sim, network, transport, fileserver,
                                  "client", IBM_560X)
        directory_node = SpectraNode(sim, network, transport, fileserver,
                                     "directory", SERVER_B,
                                     with_client=False)
        worker_node = SpectraNode(sim, network, transport, fileserver,
                                  "worker", SERVER_B, with_client=False)
        medium = SharedMedium(sim, 250_000.0, default_latency_s=0.002)
        for a, b in (("client", "directory"), ("client", "worker"),
                     ("client", "fs"), ("worker", "directory"),
                     ("worker", "fs"), ("directory", "fs")):
            network.connect(a, b, medium.attach())
        directory_node.register_service(DirectoryService(sim))
        worker_node.register_service(NullService())
        client_node.register_service(NullService())
        return sim, client_node, directory_node, worker_node

    def test_client_discovers_advertised_server(self, world):
        sim, client_node, _directory, worker = world
        client = client_node.require_client()
        assert client.server_names() == []

        start_advertising(worker.server, "directory", interval_s=5.0,
                          ttl_s=15.0)
        start_discovery(client, "directory", interval_s=5.0)
        sim.advance(12.0)
        assert "worker" in client.known_servers()

    def test_lapsed_advertisement_drops_server(self, world):
        sim, client_node, directory_node, worker = world
        client = client_node.require_client()
        start_advertising(worker.server, "directory", interval_s=5.0,
                          ttl_s=12.0)
        start_discovery(client, "directory", interval_s=5.0)
        sim.advance(12.0)
        assert "worker" in client.known_servers()
        # The worker daemon goes down: it stops refreshing its lease.
        worker.server.available = False
        sim.advance(30.0)
        assert "worker" not in client.known_servers()
        # It recovers: rediscovered automatically.
        worker.server.available = True
        sim.advance(30.0)
        assert "worker" in client.known_servers()

    def test_discovered_server_used_for_placement(self, world):
        sim, client_node, _directory, worker = world
        client = client_node.require_client()
        start_advertising(worker.server, "directory", interval_s=5.0)
        start_discovery(client, "directory", interval_s=5.0)
        sim.advance(12.0)

        spec = OperationSpec("nullop", (local_plan(), remote_plan()),
                             FidelitySpec.fixed())
        sim.run_process(client.register_fidelity(spec))
        plans_seen = set()
        for _ in range(3):
            def op():
                handle = yield from client.begin_fidelity_op("nullop")
                if handle.plan_name == "remote":
                    yield from client.do_remote_op(handle, "null", "null")
                else:
                    yield from client.do_local_op(handle, "null", "null")
                return (yield from client.end_fidelity_op(handle))

            report = sim.run_process(op())
            plans_seen.add((report.alternative.plan.name,
                            report.alternative.server))
        # Exploration reached the dynamically discovered worker.
        assert ("remote", "worker") in plans_seen


class TestTrickleReintegration:
    def test_background_trickle_drains_cml(self, sim):
        network = Network(sim)
        network.register_host("client")
        network.register_host("fs")
        network.connect("client", "fs", Link(sim, 100_000.0, 0.01))
        server = FileServer(sim, "fs")
        server.create_file("/v/a", 5_000)
        from repro.coda import CodaClient

        coda = CodaClient(sim, "client", server, network,
                          weakly_connected=True)
        coda.warm("/v/a")
        sim.run_process(coda.modify("/v/a", 6_000))
        assert coda.dirty_volumes() == ["v"]

        coda.start_trickle(interval_s=30.0)
        sim.advance(120.0)
        assert coda.dirty_volumes() == []
        assert server.lookup("/v/a").size == 6_000
        coda.stop_trickle()

    def test_trickle_waits_out_disconnection(self, sim):
        network = Network(sim)
        network.register_host("client")
        network.register_host("fs")
        link = Link(sim, 100_000.0, 0.01)
        network.connect("client", "fs", link)
        server = FileServer(sim, "fs")
        server.create_file("/v/a", 5_000)
        from repro.coda import CodaClient

        coda = CodaClient(sim, "client", server, network,
                          weakly_connected=True)
        coda.warm("/v/a")
        sim.run_process(coda.modify("/v/a", 6_000))
        network.disconnect("client", "fs")
        coda.start_trickle(interval_s=10.0)
        sim.advance(60.0)
        assert coda.dirty_volumes() == ["v"]  # patiently buffered
        network.connect("client", "fs", link)
        sim.advance(30.0)
        assert coda.dirty_volumes() == []
        coda.stop_trickle()


class TestModelPersistence:
    def test_warm_start_skips_exploration(self):
        # Session 1: train, export the learned history.
        world1, app1 = build_speech("baseline")
        exported = world1.nodes["itsy"].client.export_usage_log(app1.spec.name)

        # Session 2: a fresh world, models warm-started from the export.
        world2, app2 = build_speech("baseline")
        del world2.nodes["itsy"].client._operations[app2.spec.name]
        world2.sim.run_process(world2.nodes["itsy"].client.register_fidelity(
            app2.spec, usage_log_json=exported,
        ))
        probe = SpeechWorkload().probes(1)[0]
        report = world2.sim.run_process(app2.recognize(probe))
        # First operation of the new session: already solver-driven and
        # already correct (no exploration round).
        assert report.prediction is not None
        assert report.alternative.plan.name == "hybrid"

    def test_export_roundtrip_preserves_file_knowledge(self):
        world, app = build_speech("baseline")
        exported = world.nodes["itsy"].client.export_usage_log(app.spec.name)
        from repro.predictors import OperationDemandPredictor, UsageLog

        rebuilt = OperationDemandPredictor(
            feature_names=app.spec.input_params,
            log=UsageLog.from_json(exported),
        )
        files = rebuilt.files.likely_files(
            {"plan": "local", "vocab": "full"}
        )
        assert "/speech/lm.full" in files


class TestHoardingEndToEnd:
    def test_hoard_walk_preserves_full_fidelity_through_partition(self):
        """The paper's file-cache scenario degrades to the reduced
        vocabulary because the 277 KB language model is uncached when
        the partition hits.  A client that *hoarded* the model and ran
        a hoard walk before leaving keeps full quality."""
        from repro.apps import FULL_LM_PATH, SpeechWorkload
        from repro.experiments.speech import _build

        # Without hoarding (the paper's outcome): reduced vocabulary.
        world, app = _build("filecache")
        probe = SpeechWorkload().probes(1)[0]
        report = world.sim.run_process(app.recognize(probe))
        assert report.alternative.fidelity_dict()["vocab"] == "reduced"

        # With hoarding: same scenario, but the user hoarded the LM and
        # walked before the partition; the flush in the scenario setup
        # is undone by the walk.
        world, app = _build("filecache")
        world.nodes["itsy"].client.coda.hoard(FULL_LM_PATH)
        world.sim.run_process(world.nodes["itsy"].client.coda.hoard_walk())
        report = world.sim.run_process(app.recognize(probe))
        assert report.alternative.fidelity_dict()["vocab"] == "full"
        assert report.alternative.plan.name == "local"


class TestFailureInjection:
    def test_server_dies_between_begin_and_do_remote_op(self):
        """A server crash inside an operation surfaces as a transport
        error at do_remote_op — never a hang or a silent wrong result."""
        from repro.apps import SpeechWorkload
        from repro.experiments.speech import _build
        from repro.rpc.messages import ServiceUnavailableError

        world, app = _build("baseline")
        probe = SpeechWorkload().probes(1)[0]
        remote = next(a for a in app.spec.alternatives(["t20"])
                      if a.plan.name == "remote")

        def doomed():
            handle = yield from world.nodes["itsy"].client.begin_fidelity_op(
                app.spec.name,
                params={"utterance_length": probe},
                force=remote,
            )
            world.nodes["t20"].server.available = False  # crash mid-operation
            yield from world.nodes["itsy"].client.do_remote_op(
                handle, "janus", "full",
                indata_bytes=32_000,
                params={"utterance_length": probe, "vocab": "full"},
            )

        with pytest.raises(ServiceUnavailableError):
            world.sim.run_process(doomed())

    def test_client_recovers_with_local_plan_after_crash(self):
        """After the failed attempt, the next decision routes around the
        dead server (the poll marks it unreachable)."""
        from repro.apps import SpeechWorkload
        from repro.experiments.speech import _build

        world, app = _build("baseline")
        world.nodes["t20"].server.available = False
        world.poll()
        probe = SpeechWorkload().probes(1)[0]
        report = world.sim.run_process(app.recognize(probe))
        assert not report.alternative.plan.uses_remote
