"""Unit tests for fair-share resources."""

import pytest

from repro.sim import FairShareResource, SimulationError, Simulator
from tests.fairshare_legacy import LegacyFairShareResource


class TestFairShareBasics:
    def test_single_job_runs_at_full_capacity(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        job = resource.submit(250.0)
        sim.run()
        assert job.finished_at == pytest.approx(2.5)

    def test_zero_amount_completes_immediately(self, sim):
        resource = FairShareResource(sim, capacity=10.0)
        job = resource.submit(0.0)
        assert job.done.triggered
        assert job.elapsed == 0.0

    def test_two_equal_jobs_share_evenly(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        a = resource.submit(100.0)
        b = resource.submit(100.0)
        sim.run()
        # Each gets 50/s: both finish at t=2.
        assert a.finished_at == pytest.approx(2.0)
        assert b.finished_at == pytest.approx(2.0)

    def test_weighted_shares(self, sim):
        resource = FairShareResource(sim, capacity=90.0)
        heavy = resource.submit(120.0, weight=2.0)  # 60/s while light runs
        light = resource.submit(30.0, weight=1.0)   # 30/s
        sim.run()
        assert light.finished_at == pytest.approx(1.0)
        # After light finishes at t=1, heavy has 60 left at 90/s.
        assert heavy.finished_at == pytest.approx(1.0 + 60.0 / 90.0)

    def test_late_arrival_slows_in_flight_job(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        first = resource.submit(100.0)
        sim.call_in(0.5, lambda: resource.submit(1000.0))
        sim.run(until=10.0)
        # 0.5s alone (50 served) + 50 remaining at 50/s = 1.5s total.
        assert first.finished_at == pytest.approx(1.5)

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            FairShareResource(sim, capacity=0.0)
        resource = FairShareResource(sim, capacity=1.0)
        with pytest.raises(ValueError):
            resource.submit(-1.0)
        with pytest.raises(ValueError):
            resource.submit(1.0, weight=0.0)


class TestFairShareDynamics:
    def test_capacity_change_reschedules(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        job = resource.submit(100.0)
        sim.call_in(0.5, lambda: resource.set_capacity(50.0))
        sim.run()
        # 0.5s at 100/s (50 served) + 50 remaining at 50/s = 1.5s.
        assert job.finished_at == pytest.approx(1.5)

    def test_cancel_fails_job_and_frees_capacity(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        victim = resource.submit(1000.0)
        survivor = resource.submit(100.0)
        sim.call_in(0.1, lambda: resource.cancel(victim))
        sim.run()
        assert not victim.done.ok
        assert isinstance(victim.done.value, SimulationError)
        # survivor: 0.1s at 50/s (5 served) + 95 at 100/s.
        assert survivor.finished_at == pytest.approx(0.1 + 0.95)

    def test_cancel_unknown_job_is_noop(self, sim):
        r1 = FairShareResource(sim, capacity=10.0)
        r2 = FairShareResource(sim, capacity=10.0)
        job = r1.submit(100.0)
        r2.cancel(job)  # wrong resource: silently ignored
        sim.run()
        assert job.done.ok

    def test_rate_for_new_job_reflects_competition(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        assert resource.rate_for_new_job() == pytest.approx(100.0)
        resource.submit(1e6)
        assert resource.rate_for_new_job() == pytest.approx(50.0)
        resource.submit(1e6, weight=2.0)
        assert resource.rate_for_new_job() == pytest.approx(25.0)

    def test_tiny_residual_does_not_livelock(self, sim):
        # Regression test: a residual below the clock's float resolution
        # must be treated as done, not rescheduled forever.
        resource = FairShareResource(sim, capacity=233e6)
        sim.run(until=1000.0)  # push `now` so ulp(now) is large
        job = resource.submit(1e9)
        competitor = resource.submit(3e9)
        sim.run(max_events=100_000)
        assert job.done.triggered and competitor.done.triggered

    def test_utilization_callback_fires_on_transitions(self, sim):
        transitions = []
        resource = FairShareResource(
            sim, capacity=10.0,
            on_utilization_change=lambda now, busy, n: transitions.append(
                (round(now, 6), busy, n)
            ),
        )
        resource.submit(10.0)
        sim.run()
        assert transitions[0] == (0.0, True, 1)
        assert transitions[-1][1] is False

    def test_total_served_accounting(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        resource.submit(30.0)
        resource.submit(50.0)
        sim.run()
        assert resource.total_served == pytest.approx(80.0)


class TestAbortAndZeroCapacity:
    def test_abort_fails_done_with_given_exception(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        job = resource.submit(1000.0)
        cause = RuntimeError("link severed")
        assert resource.abort(job, cause) is True
        assert not job.done.ok
        assert job.done.value is cause
        assert resource.active_jobs == 0

    def test_abort_finished_or_foreign_job_is_noop(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        job = resource.submit(10.0)
        sim.run()
        assert resource.abort(job) is False
        other = FairShareResource(sim, capacity=100.0)
        foreign = other.submit(100.0)
        assert resource.abort(foreign) is False

    def test_abort_frees_capacity_for_survivors(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        victim = resource.submit(1e6)
        survivor = resource.submit(100.0)
        sim.call_in(0.1, lambda: resource.abort(
            victim, RuntimeError("gone")))
        sim.run()
        # survivor: 0.1s at 50/s (5 served) + 95 at 100/s.
        assert survivor.finished_at == pytest.approx(0.1 + 0.95)

    def test_abort_all_uses_fresh_exceptions(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        jobs = [resource.submit(1000.0) for _ in range(3)]
        aborted = resource.abort_all(lambda: RuntimeError("storm"))
        assert aborted == 3
        failures = [job.done.value for job in jobs]
        assert len({id(exc) for exc in failures}) == 3

    def test_constructing_with_zero_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            FairShareResource(sim, capacity=0.0)

    def test_set_capacity_zero_stalls_and_resumes(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        job = resource.submit(100.0)
        sim.call_in(0.5, lambda: resource.set_capacity(0.0))
        sim.call_in(1.5, lambda: resource.set_capacity(100.0))
        sim.run()
        # 0.5s at 100/s (50 served) + 1.0s stalled + 50 at 100/s = 2.0s.
        assert job.finished_at == pytest.approx(2.0)

    def test_zero_capacity_rates_are_zero(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        resource.set_capacity(0.0)
        assert resource.rate_for_new_job() == 0.0

    def test_negative_capacity_rejected(self, sim):
        resource = FairShareResource(sim, capacity=10.0)
        with pytest.raises(ValueError):
            resource.set_capacity(-1.0)


class TestVirtualTimeInternals:
    """Invariants specific to the virtual-time scheduler's bookkeeping."""

    def test_total_weight_is_incremental_and_matches_rescan(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        jobs = [resource.submit(1000.0, weight=w) for w in (1.0, 2.5, 4.0)]
        assert resource._total_weight() == pytest.approx(7.5)
        assert resource._total_weight() == resource._rescan_weight()
        resource.abort(jobs[1])
        assert resource._total_weight() == pytest.approx(5.0)
        assert resource._total_weight() == resource._rescan_weight()

    def test_total_weight_snaps_to_zero_when_idle(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        for w in (0.1, 0.2, 0.7):
            resource.submit(10.0, weight=w)
        sim.run()
        # Exactly zero, not float dust: rate_for_new_job would misprice
        # an idle resource otherwise.
        assert resource.active_jobs == 0
        assert resource._total_weight() == 0.0

    def test_abort_tombstones_are_compacted(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        jobs = [resource.submit(1e6) for _ in range(200)]
        for job in jobs[:199]:
            resource.abort(job)
        # 199 aborts left at most a bounded number of tombstones behind;
        # without compaction the heap would still hold all 200 entries.
        assert resource.active_jobs == 1
        assert len(resource._heap) < 100

    def test_remaining_pins_after_completion_and_abort(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        done_job = resource.submit(50.0)
        sim.run()
        assert done_job.remaining == 0.0
        aborted = resource.submit(100.0)
        sim.call_in(0.5, lambda: resource.abort(aborted))
        sim.run()
        assert aborted.remaining == pytest.approx(50.0)

    def test_rate_for_new_job_uses_live_weights(self, sim):
        resource = FairShareResource(sim, capacity=100.0)
        resource.submit(1e6, weight=3.0)
        assert resource.rate_for_new_job(1.0) == pytest.approx(25.0)
        assert resource.rate_for_new_job(4.0) == pytest.approx(
            100.0 * 4.0 / 7.0
        )


class TestLegacyReferenceModel:
    """The legacy scheduler (the test oracle in ``tests/``) stays
    API-compatible with, and behaviorally equal to, the shipping one."""

    def test_same_api_surface_smoke(self, sim):
        resource = LegacyFairShareResource(sim, capacity=10.0)
        job = resource.submit(20.0, weight=2.0)
        assert resource.rate_for_new_job(2.0) == pytest.approx(5.0)
        sim.run()
        assert job.finished_at == pytest.approx(2.0)
        assert job.remaining == 0.0
        assert resource.total_served == pytest.approx(20.0)

    def test_legacy_and_new_agree_on_staggered_weights(self, sim):
        def run_with(factory):
            local = Simulator()
            resource = factory(local, 10.0)
            jobs = []
            for i in range(6):
                local.call_at(
                    i * 0.25,
                    lambda i=i: jobs.append(
                        resource.submit(5.0 + i, weight=1.0 + (i % 2))
                    ),
                )
            local.run()
            return [(round(j.finished_at, 9)) for j in jobs]

        assert run_with(FairShareResource) == run_with(
            LegacyFairShareResource
        )

    def test_contended_medium_storm_gives_identical_sequence(self):
        # The kernel bench's 500-job contention storm: the same jobs
        # finish in the same order at the same simulated times (to
        # float dust: the two schedulers sum service differently).
        from benchmarks.kernel import (
            CONTENDED_CAPACITY,
            CONTENDED_JOBS,
            contention_storm,
        )

        def storm(resource_cls):
            completions, _events = contention_storm(
                lambda sim: resource_cls(sim, CONTENDED_CAPACITY))
            return completions

        shipping = storm(FairShareResource)
        oracle = storm(LegacyFairShareResource)
        assert len(shipping) == CONTENDED_JOBS
        assert [i for i, _ in shipping] == [i for i, _ in oracle]
        assert [t for _, t in shipping] == pytest.approx(
            [t for _, t in oracle], rel=1e-6, abs=1e-6)
