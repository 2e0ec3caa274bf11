"""Integration tests for the telemetry subsystem against a live system:

* begin_fidelity_op's streamed phase records reproduce
  ``OperationHandle.timings`` exactly (the Figure-10 view),
* an uninstrumented run (telemetry=None) is bit-identical to an
  instrumented one — tracing observes, never perturbs,
* metrics do not depend on the tracer: a scenario's registry snapshot
  is the same with spans streamed or not,
* abort_fidelity_op stops the monitors it started (the recording-leak
  fix),
* a JSONL trace feeds the ``repro trace`` CLI end to end.
"""

import json

from repro.cli import main as cli_main
from repro.coda import FileServer
from repro.core import OperationSpec, SpectraNode, local_plan, remote_plan
from repro.hosts import HostProfile
from repro.network import Link, Network
from repro.odyssey import FidelitySpec
from repro.rpc import OpContext, OpResult, RpcTransport, Service
from repro.scenarios import canned_spec, run_scenario
from repro.sim import Simulator
from repro.telemetry import (
    NULL_TRACER,
    SpanTracer,
    Telemetry,
    collect_operations,
    jsonl_trace,
    split_records,
)


class CruncherService(Service):
    name = "cruncher"

    def perform(self, ctx: OpContext):
        size = float(ctx.params["size"])
        yield from ctx.compute(2e8 * size)
        return OpResult(outdata_bytes=int(100_000 * size))


def build(telemetry=None):
    """A two-host world mirroring the quickstart, deterministically."""
    sim = Simulator(telemetry=telemetry)
    network = Network(sim)
    transport = RpcTransport(sim, network, telemetry=telemetry)
    fileserver = FileServer(sim, "fs")
    network.register_host("fs")

    handheld_hw = HostProfile(
        name="Handheld", cycles_per_second=150e6,
        idle_power_watts=0.3, cpu_active_power_watts=1.2,
        net_tx_power_watts=0.4, net_rx_power_watts=0.3,
        battery_capacity_joules=8_000.0,
    )
    server_hw = HostProfile(name="Desktop", cycles_per_second=1.5e9)

    handheld = SpectraNode(sim, network, transport, fileserver,
                           "handheld", handheld_hw, battery_powered=True,
                           telemetry=telemetry)
    desktop = SpectraNode(sim, network, transport, fileserver,
                          "desktop", server_hw, with_client=False,
                          telemetry=telemetry)
    network.connect("handheld", "desktop", Link(sim, 1.4e6, 0.003))
    network.connect("handheld", "fs", Link(sim, 1.4e6, 0.003))
    network.connect("desktop", "fs", Link(sim, 12.5e6, 0.001))
    for node in (handheld, desktop):
        node.register_service(CruncherService())

    client = handheld.require_client()
    client.add_server("desktop")
    sim.run_process(client.poll_servers())

    spec = OperationSpec(
        name="crunch",
        plans=(local_plan("local"), remote_plan("remote")),
        fidelity=FidelitySpec.fixed(),
        input_params=("size",),
    )
    sim.run_process(client.register_fidelity(spec))
    return sim, client, handheld


def run_workload(sim, client, sizes=(2.0, 3.0, 2.5, 4.0)):
    """Run the operations; return (handles, report fingerprints)."""
    handles, fingerprints = [], []
    for size in sizes:
        def op():
            handle = yield from client.begin_fidelity_op(
                "crunch", params={"size": size},
            )
            handles.append(handle)
            if handle.plan_name == "remote":
                yield from client.do_remote_op(
                    handle, "cruncher", "run",
                    indata_bytes=int(300_000 * size),
                    params={"size": size},
                )
            else:
                yield from client.do_local_op(
                    handle, "cruncher", "run", params={"size": size},
                )
            return (yield from client.end_fidelity_op(handle))

        report = sim.run_process(op())
        fingerprints.append((
            report.alternative.describe(), report.elapsed_s,
            report.energy_joules, dict(handles[-1].timings),
        ))
    return handles, fingerprints


def traced():
    """A Telemetry whose tracer appends every finished record to a list."""
    records = []
    return Telemetry(tracer=SpanTracer(records.append)), records


class TestPhaseSpansMatchTimings:
    def test_begin_span_phases_equal_handle_timings(self):
        telemetry, records = traced()
        sim, client, _ = build(telemetry)
        handles, _ = run_workload(sim, client)

        begins = {
            record["attrs"]["opid"]: record
            for record in records
            if record["name"] == "begin_fidelity_op"
        }
        assert len(begins) == len(handles)
        for handle in handles:
            record = begins[handle.opid]
            phases = {
                phase["name"][len("phase:"):]: phase["duration"]
                for phase in records
                if phase["parent_id"] == record["span_id"]
                and phase["name"].startswith("phase:")
            }
            phases["total"] = record["duration"]
            # The streamed phase records equal the timings dict exactly.
            assert phases == handle.timings
            assert set(handle.timings) == {
                "file_cache_prediction", "snapshot", "choosing",
                "consistency", "total",
            }
            assert handle.timings["total"] == record["duration"]

    def test_exported_records_carry_the_same_phases(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with jsonl_trace(path) as telemetry:
            sim, client, _ = build(telemetry)
            handles, _ = run_workload(sim, client)

        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans, _metrics = split_records(records)
        ops = {op.opid: op for op in collect_operations(spans)}
        assert len(ops) == len(handles)
        for handle in handles:
            phases = ops[handle.opid].phases
            for name, duration in phases.items():
                assert duration == handle.timings[name]


class TestNullTelemetryBitIdentical:
    def test_run_results_identical_with_and_without_telemetry(self):
        sim_off, client_off, node_off = build(telemetry=None)
        _, plain = run_workload(sim_off, client_off)

        telemetry, _records = traced()
        sim_on, client_on, node_on = build(telemetry)
        _, instrumented = run_workload(sim_on, client_on)

        # Bit-identical: same choices, same floats, same timings dicts.
        assert plain == instrumented
        assert sim_off.now == sim_on.now
        assert (node_off.host.battery.remaining_joules
                == node_on.host.battery.remaining_joules)

    def test_null_path_leaves_no_records(self):
        sim, client, _ = build(telemetry=None)
        run_workload(sim, client)
        # Nothing accumulated anywhere: the run was uninstrumented.
        from repro.telemetry import NULL_SPAN, NULL_TELEMETRY
        assert NULL_TELEMETRY.metrics.to_dict() == {}
        assert NULL_SPAN.attrs == {} and NULL_SPAN.end_time is None


class TestMetricsIndependentOfTracer:
    def test_flash_crowd_metrics_identical_with_tracer_on_and_off(self):
        spec = canned_spec("flash-crowd")
        snapshots = []
        for tracer in (SpanTracer(lambda record: None), NULL_TRACER):
            telemetry = Telemetry(tracer=tracer)
            run_scenario(spec, profile="smoke", telemetry=telemetry)
            snapshots.append(telemetry.metrics.to_dict())
        on, off = snapshots
        assert on == off
        for name in ("sim.events", "spectra.ops.begun", "rpc.calls",
                     "monitors.snapshots", "spectra.begin.total_s"):
            assert name in off


class TestAbortStopsMonitors:
    def test_abort_finishes_recording_and_stops_monitors(self):
        telemetry, records = traced()
        sim, client, _ = build(telemetry)

        def begin_only():
            return (yield from client.begin_fidelity_op(
                "crunch", params={"size": 2.0},
            ))

        handle = sim.run_process(begin_only())
        assert handle.recording.finished_at is None
        client.abort_fidelity_op(handle)
        # The leak fix: the recording is closed and every monitor ran
        # stop_op, so measured usage landed despite the abort.
        assert handle.recording.finished_at == sim.now
        assert handle.recording.usage
        assert handle.recording not in client._active
        # Idempotent, and visible in the trace.
        client.abort_fidelity_op(handle)
        aborts = [record for record in records
                  if record["name"] == "abort_fidelity_op"]
        assert len(aborts) == 1
        assert telemetry.metrics.counter("spectra.ops.aborted").value == 1.0

    def test_operation_after_abort_not_marked_concurrent(self):
        sim, client, _ = build(telemetry=None)

        def begin_only():
            return (yield from client.begin_fidelity_op(
                "crunch", params={"size": 2.0},
            ))

        aborted = sim.run_process(begin_only())
        client.abort_fidelity_op(aborted)
        handles, _ = run_workload(sim, client, sizes=(2.0,))
        assert not handles[0].recording.concurrent


class TestTraceCli:
    def test_trace_subcommand_renders_report(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        with jsonl_trace(trace) as telemetry:
            sim, client, _ = build(telemetry)
            run_workload(sim, client)
        assert len(trace.read_text().splitlines()) > 0

        out_dir = tmp_path / "results"
        code = cli_main(["trace", str(trace), "--explain",
                         "--output", str(out_dir), "--quiet"])
        assert code == 0
        text = (out_dir / "trace.txt").read_text()
        assert "Trace forensics" in text
        assert "Decision-overhead breakdown" in text
        assert "crunch" in text
        assert "Decision for operation" in text  # --explain section

    def test_trace_subcommand_missing_file(self, tmp_path):
        code = cli_main(["trace", str(tmp_path / "absent.jsonl"),
                         "--output", str(tmp_path)])
        assert code == 2
