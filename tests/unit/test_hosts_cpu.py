"""Unit tests for the CPU model (repro.hosts.cpu)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hosts import CPU, BackgroundLoad
from repro.sim import Simulator


@pytest.fixture
def cpu(sim):
    return CPU(sim, cycles_per_second=100e6)


class TestAccounting:
    def test_cycles_attributed_to_owner(self, sim, cpu):
        job = cpu.submit(50e6, owner="op1")
        sim.run()
        assert cpu.cycles_used_by("op1") == pytest.approx(50e6)
        assert cpu.cycles_used_by("other") == 0.0

    def test_in_flight_cycles_visible(self, sim, cpu):
        cpu.submit(100e6, owner="op1")
        sim.run(until=0.25)
        assert cpu.cycles_used_by("op1") == pytest.approx(25e6)

    def test_multiple_jobs_same_owner_accumulate(self, sim, cpu):
        cpu.submit(10e6, owner="op")
        sim.run()
        cpu.submit(20e6, owner="op")
        sim.run()
        assert cpu.cycles_used_by("op") == pytest.approx(30e6)

    def test_single_job_duration(self, sim, cpu):
        job = cpu.submit(200e6, owner="op")
        sim.run()
        assert job.finished_at == pytest.approx(2.0)

    def test_run_helper(self, sim, cpu):
        def worker():
            job = yield from cpu.run(100e6, owner="op")
            return sim.now

        assert sim.run_process(worker()) == pytest.approx(1.0)


class TestFairSharing:
    def test_two_operations_share(self, sim, cpu):
        a = cpu.submit(100e6, owner="a")
        b = cpu.submit(100e6, owner="b")
        sim.run()
        assert a.finished_at == pytest.approx(2.0)
        assert b.finished_at == pytest.approx(2.0)

    def test_background_load_weight(self, sim, cpu):
        load = BackgroundLoad(sim, cpu, nprocesses=3)
        load.start()
        job = cpu.submit(100e6, owner="op")
        sim.run(until=10.0)
        # Weight-3 background + weight-1 op: op gets 1/4 of the CPU.
        assert job.finished_at == pytest.approx(4.0)
        load.stop()

    def test_background_load_stop_restores_capacity(self, sim, cpu):
        load = BackgroundLoad(sim, cpu, nprocesses=1)
        load.start()
        sim.advance(1.0)
        load.stop()
        job = cpu.submit(100e6, owner="op")
        start = sim.now
        sim.run(until=sim.now + 10.0)
        assert job.finished_at - start == pytest.approx(1.0)

    def test_background_load_requires_processes(self, sim, cpu):
        with pytest.raises(ValueError):
            BackgroundLoad(sim, cpu, nprocesses=0)


class TestSupplyPrediction:
    def test_idle_cpu_predicts_full_rate(self, sim, cpu):
        assert cpu.predicted_rate_for_new_job() == pytest.approx(100e6)

    def test_external_load_reduces_prediction(self, sim, cpu):
        load = BackgroundLoad(sim, cpu, nprocesses=1)
        load.start()
        sim.advance(30.0)  # let the smoothed estimate saturate
        rate = cpu.predicted_rate_for_new_job()
        # Competing with 1 background process: ~half the CPU.
        assert rate == pytest.approx(50e6, rel=0.1)
        load.stop()

    def test_own_operations_do_not_project_forward(self, sim, cpu):
        # A just-finished operation burst must not depress the predicted
        # rate (the paper measures "cycles recently used by OTHER
        # processes").
        cpu.submit(500e6, owner="op")  # 5 s of solid work
        sim.run()
        assert cpu.predicted_rate_for_new_job() == pytest.approx(100e6)

    def test_instantaneous_competition_counts_everyone(self, sim, cpu):
        cpu.submit(1e9, owner="op1")
        cpu.submit(1e9, owner="op2", weight=2.0)
        assert cpu.instantaneous_competition() == pytest.approx(3.0)
        assert cpu.instantaneous_competition(exclude_owner="op2") == (
            pytest.approx(1.0)
        )

    def test_smoothed_utilization_decays_after_load_stops(self, sim, cpu):
        load = BackgroundLoad(sim, cpu, nprocesses=1)
        load.start()
        sim.advance(30.0)
        load.stop()
        assert cpu.smoothed_utilization() > 0.5
        sim.advance(30.0)
        assert cpu.smoothed_utilization() < 0.1


class TestCancel:
    def test_cancel_removes_job(self, sim, cpu):
        job = cpu.submit(1e9, owner="op")
        sim.advance(1.0)
        cpu.cancel(job)
        # Cancelled job keeps its partial cycles attributed.
        assert cpu.cycles_used_by("op") == pytest.approx(100e6)
        assert cpu.active_jobs == 0

    @pytest.mark.parametrize("cycles, charged", [
        (1e9, 100e6),   # still in flight at the cancel
        (50e6, 50e6),   # finished before the cancel
        (0.0, 0.0),     # zero cycles: never in flight
    ], ids=["in-flight", "finished", "zero-cycle"])
    def test_cancel_charges_the_owner_once(self, sim, cpu, cycles, charged):
        """``cancel`` only asks the resource to cancel: failing ``done``
        retires the job synchronously, so by the time ``cancel`` returns
        the partial cycles are charged and nothing is left in flight.  A
        second cancel of the same job changes nothing."""
        job = cpu.submit(cycles, owner="op")
        sim.advance(1.0)
        for _ in range(2):
            cpu.cancel(job)
            assert not cpu._resource.jobs
            assert cpu.active_jobs == 0
            assert cpu.instantaneous_competition() == 0.0
            assert cpu.cycles_used_by("op") == job.amount - job.remaining
            assert cpu.cycles_used_by("op") == pytest.approx(charged)
        sim.advance(1.0)
        assert cpu.cycles_used_by("op") == pytest.approx(charged)


class TestRelease:
    """``release`` drops a finished owner's ledger entry once its last
    reader is done; what a live reader measures does not change."""

    def test_release_forgets_a_finished_owner(self, sim, cpu):
        cpu.submit(50e6, owner="op#1")
        sim.run()
        assert cpu.cycles_used_by("op#1") == pytest.approx(50e6)
        cpu.release("op#1")
        assert "op#1" not in cpu._finished_cycles
        cpu.release("op#1")  # a second release is a no-op
        assert cpu.cycles_used_by("op#1") == 0.0

    def test_release_with_a_job_in_flight(self, sim, cpu):
        """The abort path: the operation's last read and release happen
        while a job of its owner still runs.  The job finishes, and the
        ledger holds nothing for the owner."""
        job = cpu.submit(100e6, owner="op#1")
        sim.run(until=0.25)
        assert cpu.cycles_used_by("op#1") == pytest.approx(25e6)
        cpu.release("op#1")
        sim.run()
        assert job.finished_at == pytest.approx(1.0)
        assert not cpu._resource.jobs
        assert cpu._finished_cycles == {}

    def test_reader_after_release_sees_the_in_flight_job(self, sim, cpu):
        """A failover restarts the same owner: a reader opened after the
        release while a job still runs measures the rest of that job."""
        cpu.submit(100e6, owner="op#1")
        sim.run(until=0.25)
        cpu.release("op#1")
        start = cpu.cycles_used_by("op#1")
        assert start == pytest.approx(25e6)
        sim.run()
        cpu.submit(10e6, owner="op#1")
        sim.run()
        assert cpu.cycles_used_by("op#1") - start == pytest.approx(85e6)
        cpu.release("op#1")
        assert cpu._finished_cycles == {}

    def test_other_owners_read_as_before(self, sim, cpu):
        load = BackgroundLoad(sim, cpu, nprocesses=1)
        load.start()
        cpu.submit(50e6, owner="op#1")
        cpu.submit(50e6, owner="op#2")
        sim.advance(2.0)
        cpu.release("op#1")
        assert cpu.cycles_used_by("op#2") == pytest.approx(50e6)
        assert set(cpu._finished_cycles) == {"background", "op#2"}
        load.stop()


def rescanned_external_weight(cpu):
    """An independent O(n) rescan of the in-flight jobs' external weight."""
    return sum(
        job.weight
        for job in cpu._resource.jobs
        if job.remaining > 0 and job.owner in cpu._external_owners
    )


class AlwaysResyncCPU(CPU):
    """A CPU that resyncs its external weight at every membership change,
    as before it learned to skip the resync while no owner has ever been
    external.  A second resync at the same instant folds no interval, so
    the ones the base class still makes change nothing."""

    def submit(self, *args, **kwargs):
        job = super().submit(*args, **kwargs)
        self._resync_external()
        return job

    def _retire(self, job):
        super()._retire(job)
        self._resync_external()


class TestExternalWeight:
    """The external weight, and the one last resynced, sum like a rescan
    of every in-flight job."""

    def _check(self, cpu):
        assert cpu._external_weight() == rescanned_external_weight(cpu)
        assert cpu._last_external_weight == rescanned_external_weight(cpu)

    def test_submit_cancel_retire_and_a_late_external_owner(self, sim, cpu):
        op = cpu.submit(50e6, owner="op")
        background = cpu.submit(1e9, owner="bg", weight=2.0, external=True)
        self._check(cpu)
        assert cpu._external_weight() == 2.0
        # "late" runs a plain job first, then turns external: the job it
        # already has running counts from then on, as the rescan counts it.
        early = cpu.submit(1e9, owner="late", weight=0.5)
        self._check(cpu)
        assert cpu._external_weight() == 2.0
        cpu.submit(20e6, owner="late", weight=1.5, external=True)
        self._check(cpu)
        assert cpu._external_weight() == 4.0
        sim.advance(5.0)  # the op and the late external job retire
        assert op.finished_at is not None
        self._check(cpu)
        assert cpu._external_weight() == 2.5
        cpu.cancel(background)
        self._check(cpu)
        cpu.cancel(early)
        self._check(cpu)
        assert cpu._external_weight() == 0.0
        assert cpu.active_jobs == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_interleaving_matches_rescan(self, sim, cpu, seed):
        rng = random.Random(seed)
        owners = ("a", "b", "c", "d")
        jobs = []
        for _ in range(60):
            action = rng.random()
            if action < 0.5:
                jobs.append(cpu.submit(
                    rng.choice((0.0, 5e6, 50e6, 1e9)),
                    owner=rng.choice(owners),
                    weight=rng.choice((0.5, 1.0, 3.0)),
                    external=rng.random() < 0.3))
            elif action < 0.7 and jobs:
                cpu.cancel(jobs.pop(rng.randrange(len(jobs))))
            else:
                sim.advance(rng.choice((0.01, 0.1, 1.0)))
            self._check(cpu)

    @pytest.mark.parametrize("seed", range(5))
    def test_skipped_resyncs_match_a_cpu_that_always_resyncs(self, seed):
        """Until an owner turns external the smoothed load is 0.0 and
        resyncing keeps it 0.0; the first external job arrives late, after
        plain jobs have come and gone, and from then on both CPUs resync
        alike.  Their supply predictions stay equal throughout."""
        rng = random.Random(seed)
        sims = (Simulator(), Simulator())
        cpus = (CPU(sims[0], cycles_per_second=100e6),
                AlwaysResyncCPU(sims[1], cycles_per_second=100e6))
        jobs = ([], [])

        def check():
            fast, always = cpus
            assert fast.smoothed_load() == always.smoothed_load()
            for owner in (None, "a"):
                assert (fast.predicted_rate_for_new_job(owner)
                        == always.predicted_rate_for_new_job(owner))

        def advance(dt):
            for clock in sims:
                clock.advance(dt)

        late = rng.randrange(10, 40)
        for step in range(80):
            action = rng.random()
            if action < 0.5:
                submit = dict(
                    cycles=rng.choice((0.0, 5e6, 50e6, 1e9)),
                    owner=rng.choice(("a", "b", "c")),
                    weight=rng.choice((0.5, 1.0, 3.0)),
                    external=step >= late and rng.random() < 0.3)
                for cpu, held in zip(cpus, jobs):
                    held.append(cpu.submit(**submit))
            elif action < 0.7 and jobs[0]:
                index = rng.randrange(len(jobs[0]))
                for cpu, held in zip(cpus, jobs):
                    cpu.cancel(held.pop(index))
            else:
                advance(rng.choice((0.01, 0.1, 1.0)))
            check()
        assert cpus[0]._external_owners, "no owner ever turned external"
        assert cpus[0].smoothed_load() > 0.0
        # The external load goes away: the smoothed load decays alike.
        while jobs[0]:
            for cpu, held in zip(cpus, jobs):
                cpu.cancel(held.pop())
            check()
        for _ in range(5):
            advance(1.0)
            check()


class DictScanOracle:
    """The CPU's bookkeeping as it was before it read its jobs from the
    resource's table: an in-flight job -> owner dict in submission order,
    a job retired (popped and charged) by its own ``done`` callback, and
    the four scans over the dict.  It shadows a live CPU: every submit
    and release goes through both."""

    def __init__(self, cpu):
        self.cpu = cpu
        self._active = {}
        self._finished_cycles = {}

    def submit(self, cycles, owner, weight=1.0, external=False):
        job = self.cpu.submit(cycles, owner=owner, weight=weight,
                              external=external)
        if job.finished_at is None:
            if owner not in self._finished_cycles:
                self._finished_cycles[owner] = 0.0
            self._active[job] = owner
            job.done.add_callback(lambda _ev: self._retire(owner, job))
        else:
            self._finished_cycles[owner] = (
                self._finished_cycles.get(owner, 0.0) + job.amount)
        return job

    def _retire(self, owner, job):
        self._active.pop(job)
        finished = self._finished_cycles.get(owner)
        if finished is not None:
            self._finished_cycles[owner] = (
                finished + (job.amount - job.remaining))

    def release(self, owner):
        self.cpu.release(owner)
        self._finished_cycles.pop(owner, None)

    def jobs_of(self, owner):
        """The jobs ``cancel_jobs_of`` cancelled."""
        return [job for job, job_owner in self._active.items()
                if job_owner == owner]

    def instantaneous_competition(self, exclude_owner=None):
        return sum(
            job.weight
            for job, owner in self._active.items()
            if job.remaining > 0 and owner != exclude_owner
        )

    def external_weight(self):
        return sum(
            job.weight
            for job, owner in self._active.items()
            if job.remaining > 0 and owner in self.cpu._external_owners
        )

    def cycles_used_by(self, owner):
        self.cpu._resource._settle()
        in_flight = sum(
            job.amount - job.remaining
            for job, job_owner in self._active.items()
            if job_owner == owner
        )
        return self._finished_cycles.setdefault(owner, 0.0) + in_flight


ORACLE_OWNERS = ("a", "b", "bg")

#: one step of a random CPU workload
cpu_actions = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(ORACLE_OWNERS),
              st.sampled_from((0.0, 5e6, 37e6, 50e6, 1e9)),
              st.sampled_from((0.5, 1.0, 3.0)), st.booleans()),
    # two equal jobs of one owner: they finish at the same instant
    st.tuples(st.just("pair"), st.sampled_from(ORACLE_OWNERS),
              st.sampled_from((5e6, 37e6, 50e6)),
              st.sampled_from((0.5, 1.0, 3.0)), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("cancel_jobs_of"), st.sampled_from(ORACLE_OWNERS)),
    st.tuples(st.just("release"), st.sampled_from(ORACLE_OWNERS)),
    st.tuples(st.just("advance"),
              st.sampled_from((0.0, 0.013, 0.1, 0.37, 1.0))),
)


class TestJobTableMatchesTheDictScans:
    """Reading in-flight jobs through the resource's table, and charging
    a job as the resource detaches it, gives exactly (``==``) what the
    dict scans gave, at every step of a random workload."""

    @staticmethod
    def check(cpu, oracle):
        for owner in (None,) + ORACLE_OWNERS:
            assert (cpu.instantaneous_competition(owner)
                    == oracle.instantaneous_competition(owner))
        assert cpu._external_weight() == oracle.external_weight()
        for owner in ORACLE_OWNERS:
            assert cpu.cycles_used_by(owner) == oracle.cycles_used_by(owner)

    @given(actions=st.lists(cpu_actions, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_random_workload(self, actions):
        sim = Simulator()
        cpu = CPU(sim, cycles_per_second=100e6)
        oracle = DictScanOracle(cpu)
        jobs = []
        for action in actions:
            kind = action[0]
            if kind in ("submit", "pair"):
                _kind, owner, cycles, weight, external = action
                for _ in range(2 if kind == "pair" else 1):
                    jobs.append(oracle.submit(cycles, owner, weight,
                                              external=external and owner == "bg"))
            elif kind == "cancel" and jobs:
                cpu.cancel(jobs[action[1] % len(jobs)])
            elif kind == "cancel_jobs_of":
                assert (cpu._resource.jobs_of(action[1])
                        == oracle.jobs_of(action[1]))
                cpu.cancel_jobs_of(action[1])
            elif kind == "release":
                oracle.release(action[1])
            elif kind == "advance":
                sim.advance(action[1])
            self.check(cpu, oracle)
            assert list(cpu._resource.jobs) == list(oracle._active)
        sim.run()
        self.check(cpu, oracle)
        assert not cpu._resource.jobs and not oracle._active
        assert cpu._finished_cycles == oracle._finished_cycles

    def test_same_instant_completions_read_as_finished(self, sim, cpu):
        """The resource detaches every job due at one instant before it
        succeeds any of them, and a woken process runs at once.  The
        process woken by the first of two same-owner completions reads
        both jobs as finished: the second one is charged as it is
        detached, not when its own ``done`` callbacks run."""
        oracle = DictScanOracle(cpu)
        first = oracle.submit(30e6, "op")
        second = oracle.submit(30e6, "op")
        seen = []

        def reader():
            yield first.done
            seen.append((second.done.triggered,
                         cpu.cycles_used_by("op"),
                         oracle.cycles_used_by("op"),
                         cpu.instantaneous_competition(),
                         list(cpu._resource.jobs)))

        sim.spawn(reader())
        sim.run()
        assert seen == [(False, 60e6, 60e6, 0, [])]
        assert second.finished_at == first.finished_at

    def test_a_reader_opened_after_release_in_the_window(self, sim, cpu):
        """As :meth:`CPU.release` says: a reader that starts after a job
        finished never sees its cycles.  The second of two same-instant
        jobs has finished when the first one's waiter runs; the dict
        scans still counted it in flight there."""
        oracle = DictScanOracle(cpu)
        first = oracle.submit(30e6, "op")
        oracle.submit(30e6, "op")
        oracle.release("op")
        seen = []

        def reader():
            yield first.done
            seen.append((cpu.cycles_used_by("op"),
                         oracle.cycles_used_by("op")))

        sim.spawn(reader())
        sim.run()
        assert seen == [(0.0, 30e6)]
        assert cpu.cycles_used_by("op") == 0.0
