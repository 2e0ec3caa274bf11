"""Integration tests: the canned scenario library end to end.

Every canned scenario must run its smoke profile to completion — all
generated operations complete (failing over or degrading to local
execution under the timeline's faults, never erroring out) — with real
traffic on the network.  Also pins the contention experiment to the
scenario compiler (the refactor must not move the measured numbers) and
drives the Pangloss adapter through the runner.
"""

import dataclasses

import pytest

from repro.experiments.contention import run_contention_cell
from repro.scenarios import (
    SCENARIOS,
    AppSpec,
    ArrivalSpec,
    ClientSpec,
    canned_spec,
    run_scenario,
    smoke_spec,
    thinkpad_testbed,
)
from repro.telemetry import NULL_TRACER, Telemetry


class TestCannedScenarioSmoke:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_all_ops_complete_with_traffic(self, name):
        report = run_scenario(canned_spec(name), profile="smoke")
        assert report.completed, (
            f"{name}: {[op.error for op in report.ops if not op.completed]}"
        )
        assert len(report.ops) >= 1
        assert report.bytes_transferred > 0
        assert report.transfers > 0
        assert all(op.elapsed_s > 0 for op in report.ops)

    def test_smoke_profile_shrinks_but_keeps_world(self):
        full = canned_spec("server-churn-day")
        small = smoke_spec(full)
        assert small.hosts == full.hosts
        assert small.links == full.links
        assert small.duration_s <= 30.0
        assert all(c.arrivals.n_ops <= 2 for c in small.clients)
        assert all(e.at_s < 30.0 for e in small.timeline)

    def test_churn_scenario_exercises_fault_machinery(self):
        report = run_scenario(canned_spec("server-churn-day"),
                              profile="smoke")
        assert report.completed
        assert report.counters["faults.injected"] >= 1
        assert report.fault_journal

    def test_report_counters_present_even_when_clean(self):
        report = run_scenario(canned_spec("flash-crowd"), profile="smoke")
        for name in ("spectra.failovers", "rpc.retries", "faults.injected"):
            assert name in report.counters


    def test_report_counters_do_not_depend_on_the_tracer(self):
        """A metrics-only telemetry counts faults, retries and failovers
        exactly as the default (traced) one does."""
        spec = canned_spec("server-churn-day")
        traced = run_scenario(spec, profile="smoke")
        metrics_only = run_scenario(spec, profile="smoke",
                                    telemetry=Telemetry(tracer=NULL_TRACER))
        assert metrics_only.counters == traced.counters
        for name in ("faults.injected", "rpc.retries", "rpc.failures",
                     "spectra.failovers", "spectra.ops.aborted"):
            assert traced.counters[name] > 0, name


class TestContentionViaCompiler:
    def test_measured_numbers_pinned(self):
        # The contention experiment builds its world through the
        # scenario compiler; these exact numbers pin the compiled world.
        # Re-baselined when HeuristicSolver switched from an identical
        # RNG stream every solve to a per-solve derived seed (the stream
        # reuse was a bug): restart starting points shifted, moving the
        # Spectra mean by ~0.03%.  Still run-to-run deterministic.
        cell = run_contention_cell(2)
        assert cell.n_clients == 2
        assert cell.spectra_mean_s == pytest.approx(
            6.634679144004593, abs=1e-9)
        assert cell.always_remote_mean_s == pytest.approx(
            6.6274688435754, abs=1e-9)
        assert cell.spectra_local_count == 0


class TestPanglossAdapter:
    """The pangloss adapter's only end-to-end use: a one-client
    Pangloss world on the paper's ThinkPad testbed, driven by arrivals
    through the runner."""

    @staticmethod
    def _spec():
        base = thinkpad_testbed(AppSpec(kind="pangloss"))
        client = ClientSpec(
            host="560x", app="pangloss", servers=("server-a", "server-b"),
            arrivals=ArrivalSpec(kind="fixed", rate_ops_per_s=0.2, n_ops=4),
            training_ops=6,
        )
        return dataclasses.replace(base, name="pangloss-batch",
                                   duration_s=40.0, clients=(client,))

    def test_runs_and_is_byte_deterministic(self):
        first = run_scenario(self._spec())
        second = run_scenario(self._spec())
        assert first.completed
        assert len(first.ops) == 4
        assert first.bytes_transferred > 0
        assert first.to_json() == second.to_json()
