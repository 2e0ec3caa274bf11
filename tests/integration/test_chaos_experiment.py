"""Integration tests for mid-operation faults (acceptance criteria).

1. A scripted mid-operation server crash during an *unforced* remote
   speech recognition completes via failover — no exception reaches the
   application — and the trace shows the ``abort_fidelity_op`` span with
   ``spectra.failovers`` >= 1.
2. The same seed and fault schedule produce byte-identical decisions and
   timings across two runs.
3. The ``chaos-speech`` scenario at the smoke profile: every operation
   completes, the anchored operation fails over, and the report carries
   the fault-free baseline and the degradation against it.
4. Every anchored fault of the canned chaos scenarios lands, and an
   anchor that cannot work is an error naming its timeline entry.
"""

import dataclasses

import pytest

from repro.apps import SpeechWorkload
from repro.experiments import speech as speech_experiment
from repro.faults import FaultEvent, FaultInjector
from repro.rpc import RetryPolicy
from repro.scenarios import canned_spec, run_scenario, smoke_spec
from repro.scenarios.spec import AnchorSpec, ScenarioError
from repro.telemetry import SpanTracer, Telemetry
from tests.unit.test_scenario_spec import small_spec


def crashed_speech_run(seed=7):
    """One unforced recognition with the T20 crashing mid-operation."""
    records = []
    telemetry = Telemetry(tracer=SpanTracer(records.append))
    world, app = speech_experiment._train(telemetry=telemetry)
    client = world.nodes["itsy"].client
    # Generous per-attempt timeout (a recognition takes seconds), quick
    # backoff: the failover, not the retry, is under test.
    client.retry_policy = RetryPolicy(
        max_attempts=3, timeout_s=600.0,
        backoff_base_s=0.5, backoff_multiplier=2.0, backoff_max_s=5.0,
        jitter=0.1, seed=seed,
    )
    injector = FaultInjector(world.sim, world.network,
                             {"t20": world.nodes["t20"].server},
                             telemetry=telemetry)
    injector.schedule(FaultEvent(world.sim.now + 2.0, "crash_server", "t20"))
    injector.schedule(FaultEvent(world.sim.now + 60.0, "restart_server",
                                 "t20"))
    length = SpeechWorkload().probes(1)[0]
    report = world.sim.run_process(app.recognize(length))
    world.sim.run()  # drain the restart event
    return report, telemetry, injector, records


class TestMidOpCrashFailover:
    def test_operation_completes_via_failover(self):
        report, telemetry, injector, records = crashed_speech_run()
        # No exception reached the application, and the report records
        # the transparent re-placement.
        assert report.failed_over
        assert report.elapsed_s > 0
        counters = telemetry.metrics
        assert counters.counter("spectra.failovers").value >= 1
        assert counters.counter("spectra.ops.aborted").value >= 1
        assert counters.counter("faults.injected").value == 2

        names = [record["name"] for record in records]
        assert "abort_fidelity_op" in names
        assert "spectra.failover" in names
        assert "fault.inject" in names

    def test_same_seed_and_schedule_reproduce_exactly(self):
        first, tel_a, inj_a, _ = crashed_speech_run(seed=7)
        second, tel_b, inj_b, _ = crashed_speech_run(seed=7)
        # Byte-identical decisions and timings: same placement, same
        # elapsed time and usage to the last bit, same fault journal.
        assert first.alternative.describe() == second.alternative.describe()
        assert first.elapsed_s == second.elapsed_s
        assert first.usage == second.usage
        assert inj_a.journal() == inj_b.journal()
        assert (tel_a.metrics.counter("rpc.retries").value
                == tel_b.metrics.counter("rpc.retries").value)


class TestSmokeProfile:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        return run_scenario(canned_spec("chaos-speech"), profile="smoke")

    def test_every_operation_completes(self, smoke_report):
        assert smoke_report.completed
        assert [op.index for op in smoke_report.ops] == [0, 1]
        assert [op.index for op in smoke_report.baseline.ops] == [0, 1]

    def test_failover_happened_and_is_reported(self, smoke_report):
        assert smoke_report.ops[1].failed_over
        counters = smoke_report.counters
        assert counters["spectra.failovers"] >= 1
        assert counters["rpc.retries"] >= 1
        journal = smoke_report.fault_journal
        assert any("crash_server t20" in line for line in journal)
        assert any("restart_server t20" in line for line in journal)

    def test_degradation_metrics_are_sane(self, smoke_report):
        baseline = smoke_report.to_dict()["baseline"]
        # Surviving a mid-op crash costs time, never negative time.
        assert baseline["time_degradation"] >= 1.0
        assert baseline["time_s"] > 0
        assert baseline["clients"]["itsy"]["energy_j"] > 0
        # The fault-free pass is invisible: it adds no counters, no
        # journal entries and no failovers to the report.
        assert smoke_report.baseline.fault_journal == []
        assert smoke_report.counters["faults.injected"] == 2

    def test_the_fault_free_pass_leaves_no_trace(self, smoke_report):
        records = []
        traced = run_scenario(
            canned_spec("chaos-speech"), profile="smoke",
            telemetry=Telemetry(tracer=SpanTracer(records.append)))
        assert traced.to_json() == smoke_report.to_json()
        names = [record["name"] for record in records]
        # One pass's 4 training and 2 measured operations, 2 faults.
        assert names.count("begin_fidelity_op") == 4 + 2
        assert names.count("fault.inject") == 2

    def test_smoke_keeps_surviving_anchors(self):
        spec = canned_spec("chaos-speech")
        assert [e.anchor.op for e in spec.timeline] == [1, 2]
        assert [e.anchor.op for e in smoke_spec(spec).timeline] == [1]


class TestCannedChaosScenarios:
    @pytest.mark.parametrize("name", ["chaos-speech", "chaos-latex"])
    def test_faults_land_and_crash_fails_over(self, name):
        spec = canned_spec(name)
        report = run_scenario(spec)
        assert report.completed
        assert report.fault_journal
        assert not any(line.endswith("(no-op)")
                       for line in report.fault_journal)
        crash = next(e for e in spec.timeline if e.kind == "server_down")
        assert report.ops[crash.anchor.op].failed_over
        assert "baseline" in report.to_dict()

    def test_timeline_without_anchors_adds_no_baseline(self):
        report = run_scenario(canned_spec("server-churn-day"),
                              profile="smoke")
        assert report.baseline is None
        assert "baseline" not in report.to_dict()


class TestAnchorsThatCannotWork:
    def test_an_ungenerated_op_is_an_error(self):
        spec = canned_spec("chaos-speech")
        late = dataclasses.replace(
            spec.timeline[0],
            anchor=AnchorSpec(client="itsy", op=9, fraction=0.5))
        spec = dataclasses.replace(spec, timeline=(spec.timeline[1], late))
        with pytest.raises(ScenarioError, match=r"timeline\[1\]\.anchor") \
                as excinfo:
            run_scenario(spec)
        assert "never issues measured operation 9" in str(excinfo.value)

    def test_an_op_failing_fault_free_is_an_error(self):
        # The client cannot reach its server and does not run the app
        # itself, so its one operation fails in the fault-free pass.
        spec = small_spec(
            links=[dict(a="c", b="fs", bandwidth_bps=250_000.0,
                        latency_s=0.002),
                   dict(a="s", b="fs", bandwidth_bps=500_000.0,
                        latency_s=0.001)],
            apps=[dict(kind="null", hosts=["s"])],
            timeline=[dict(at_s=0.0, kind="server_down", target="s",
                           anchor=dict(client="c", op=0, fraction=0.5))],
        )
        with pytest.raises(ScenarioError, match=r"timeline\[0\]\.anchor") \
                as excinfo:
            run_scenario(spec)
        assert "fails without faults" in str(excinfo.value)
