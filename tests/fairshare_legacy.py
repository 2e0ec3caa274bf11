"""The pre-virtual-time fair-share scheduler, kept as a reference model.

This is the original :class:`~repro.sim.resources.FairShareResource`
algorithm: on **every** membership or capacity change it *settles* —
rolls each active job's remaining work forward to ``now``, O(n) — and
then *reschedules* by scanning every job for the earliest upcoming
completion, another O(n).  A burst of n arrivals therefore costs O(n²),
which is what capped scenarios at tens of clients.

The shipping scheduler (:class:`~repro.sim.resources.FairShareResource`)
replaces this with virtual-time (GPS) accounting: O(1) per membership
change plus O(log n) per completion.  The two must be *behaviorally
equivalent* — same completion times, same completion order, same
service totals — and this module is how that is proven rather than
assumed:

* the hypothesis equivalence suite
  (``tests/property/test_fairshare_equivalence.py``) drives both
  schedulers through randomized submit/abort/capacity-change schedules
  and compares outcomes,
* ``tests/unit/test_sim_resources.py`` runs the 500-job
  ``contended_medium`` contention storm of the kernel suite
  (``benchmarks/kernel.py``) through both and requires the identical
  completion sequence, and
* ``tests/unit/test_kernel_ratchet.py`` times the storm on this
  scheduler and requires the kernel ratchet to fail on it.

It lives under ``tests/`` because nothing in the shipping package
uses it: it is an oracle, not an alternative.

Keep this implementation boring and unoptimized — its value is being
obviously correct.  It shares :class:`~repro.sim.resources.FairShareJob`
with the shipping scheduler so the tests can treat the two
interchangeably.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.sim import FairShareJob, SimulationError, Simulator


class LegacyFairShareResource:
    """Settle-and-rescan processor sharing (the pre-optimization model).

    API-compatible with :class:`~repro.sim.resources.FairShareResource`;
    see that class for semantics.  Every membership change is O(n),
    every contention burst O(n²).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        name: str = "resource",
        on_utilization_change: Optional[Callable[[float, bool, int], None]] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self._sim = sim
        self._capacity = float(capacity)
        self.name = name
        self._jobs: List[FairShareJob] = []
        self._last_update: dict = {}
        self._remaining: dict = {}
        self._timer_token = 0
        self._on_utilization_change = on_utilization_change
        self.total_served = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    @property
    def busy(self) -> bool:
        return bool(self._jobs)

    def set_capacity(self, capacity: float) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative: {capacity}")
        self._settle()
        self._capacity = float(capacity)
        self._reschedule()
        self._notify()

    def submit(self, amount: float, weight: float = 1.0) -> FairShareJob:
        job = FairShareJob(amount, weight=weight)
        job.started_at = self._sim.now
        if job.amount <= 0:
            job.finished_at = self._sim.now
            job.done.succeed(job)
            return job
        self._settle()
        self._jobs.append(job)
        job._resource = self
        self._remaining[id(job)] = job.amount
        self._last_update[id(job)] = self._sim.now
        self._reschedule()
        self._notify()
        return job

    def cancel(self, job: FairShareJob) -> None:
        self.abort(job, SimulationError(f"job cancelled on {self.name}"))

    def abort(self, job: FairShareJob,
              exc: Optional[BaseException] = None) -> bool:
        if job not in self._jobs:
            return False
        self._settle()
        self._jobs.remove(job)
        job._detached_remaining = self._remaining.pop(id(job))
        job._resource = None
        self._last_update.pop(id(job), None)
        job.done.fail(exc if exc is not None
                      else SimulationError(f"job aborted on {self.name}"))
        self._reschedule()
        self._notify()
        return True

    def abort_all(self, exc_factory: Callable[[], BaseException]) -> int:
        count = 0
        for job in list(self._jobs):
            if self.abort(job, exc_factory()):
                count += 1
        return count

    def run(self, amount: float, weight: float = 1.0) -> Generator:
        job = self.submit(amount, weight=weight)
        yield job.done
        return job

    def rate_for_new_job(self, weight: float = 1.0) -> float:
        if self._capacity <= 0:
            return 0.0
        total_weight = sum(j.weight for j in self._jobs) + weight
        return self._capacity * weight / total_weight

    def remaining_of(self, job: FairShareJob) -> float:
        """Remaining work of an active job as of the last settle."""
        return self._remaining.get(id(job), 0.0)

    def _job_remaining(self, job: FairShareJob) -> float:
        """`FairShareJob.remaining` backend while the job is in service."""
        return self._remaining[id(job)]

    # -- internals ---------------------------------------------------------------

    def _total_weight(self) -> float:
        return sum(job.weight for job in self._jobs)

    def _settle(self) -> None:
        """Roll each active job's remaining work forward to `now`: O(n)."""
        now = self._sim.now
        if not self._jobs:
            return
        total_weight = self._total_weight()
        for job in self._jobs:
            key = id(job)
            elapsed = now - self._last_update[key]
            if elapsed > 0:
                served = self._capacity * (job.weight / total_weight) * elapsed
                served = min(served, self._remaining[key])
                self._remaining[key] -= served
                self.total_served += served
            self._last_update[key] = now

    def _reschedule(self) -> None:
        """Scan every job for the earliest completion: O(n) + a timer."""
        self._timer_token += 1
        if not self._jobs or self._capacity <= 0:
            return
        token = self._timer_token
        total_weight = self._total_weight()
        soonest = min(
            self._remaining[id(job)]
            / (self._capacity * job.weight / total_weight)
            for job in self._jobs
        )
        soonest = max(soonest, 0.0)
        self._sim.call_in(soonest, lambda: self._on_timer(token))

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a membership change
        self._settle()
        tolerance = max(1e-9, 1e-12 * self._capacity)
        finished = [job for job in self._jobs
                    if self._remaining[id(job)] <= tolerance]
        self._jobs = [job for job in self._jobs
                      if self._remaining[id(job)] > tolerance]
        now = self._sim.now
        for job in finished:
            self._remaining.pop(id(job), None)
            self._last_update.pop(id(job), None)
            job._detached_remaining = 0.0
            job._resource = None
            job.finished_at = now
            job.done.succeed(job)
        self._reschedule()
        if finished:
            self._notify()

    def _notify(self) -> None:
        if self._on_utilization_change is not None:
            self._on_utilization_change(self._sim.now, self.busy, len(self._jobs))
