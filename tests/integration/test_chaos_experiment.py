"""Integration tests for the chaos experiment (acceptance criteria).

1. A scripted mid-operation server crash during an *unforced* remote
   speech recognition completes via failover — no exception reaches the
   application — and the trace shows the ``abort_fidelity_op`` span with
   ``spectra.failovers`` >= 1.
2. The same seed and fault schedule produce byte-identical decisions and
   timings across two runs.
3. The smoke chaos profile end-to-end: every operation completes and the
   report carries the degradation numbers.
"""

import pytest

from repro.apps import SpeechWorkload
from repro.experiments import speech as speech_experiment
from repro.experiments.chaos import default_retry_policy, run_chaos_workload
from repro.faults import FaultEvent, FaultInjector, PROFILES
from repro.telemetry import SpanTracer, Telemetry


def crashed_speech_run(seed=7):
    """One unforced recognition with the T20 crashing mid-operation."""
    records = []
    telemetry = Telemetry(tracer=SpanTracer(records.append))
    world, app = speech_experiment._build("baseline", telemetry=telemetry)
    client = world.nodes["itsy"].client
    client.retry_policy = default_retry_policy(seed)
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
    def smoke_result(self):
        return run_chaos_workload(PROFILES["smoke"], "speech")

    def test_every_operation_completes(self, smoke_result):
        assert smoke_result.completed
        assert len(smoke_result.chaos) == len(smoke_result.baseline) == 3

    def test_failover_happened_and_is_reported(self, smoke_result):
        assert smoke_result.failovers >= 1
        assert any(o.failed_over for o in smoke_result.chaos)
        assert smoke_result.counters["faults.injected"] >= 1
        assert any("crash_server" in line
                   for line in smoke_result.fault_journal)

    def test_degradation_metrics_are_sane(self, smoke_result):
        # Surviving a mid-op crash costs time, never negative time.
        assert smoke_result.time_degradation >= 1.0
        assert smoke_result.baseline_time_s > 0
        assert smoke_result.chaos_energy_j > 0
