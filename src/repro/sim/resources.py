"""Shared-resource primitives built on the kernel.

The one primitive here is shared by every substrate that divides a
capacity among concurrent users — hosts' CPUs and the network media:

:class:`FairShareResource`
    Models a capacity (CPU cycles/s, link bytes/s) divided among active
    jobs in proportion to their weights — the processor-sharing queueing
    discipline, the right model for both a timeshared CPU scheduler and
    a contended wireless medium.  Accounting is **virtual-time (GPS)**:
    membership changes are O(1), completions O(log n), so hundreds of
    concurrent jobs cost what tens used to.

Virtual-time accounting, in brief.  Let ``V(t)`` be the cumulative
service delivered *per unit weight* since the resource was created:
while the resource is busy, ``dV/dt = capacity / total_weight``.  A job
joining at virtual time ``V_join`` with ``amount`` work and ``weight``
has consumed ``weight * (V(t) - V_join)`` by time ``t`` and therefore
finishes exactly when ``V`` reaches its **finish tag**
``V_join + amount / weight``.  Tags are fixed at join time, so the
scheduler keeps a min-heap of ``(tag, seq, job)`` and only ever needs
the heap top to know the next completion; arrivals and departures just
update the running ``total_weight`` (which changes the *rate* at which
``V`` advances, not any tag).  Aborted jobs stay in the heap as
tombstones and are discarded when they surface — the same lazy-cancel
protocol the completion timer uses via
:class:`~repro.sim.kernel.TimerHandle`.  See DESIGN.md §15 for the
invariants and the equivalence argument against the legacy
settle-and-rescan scheduler, which the test suite keeps as the oracle
for its equivalence tests.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .events import Event, SimulationError
from .kernel import Simulator, TimerHandle


class FairShareJob:
    """A unit of demand on a :class:`FairShareResource`.

    ``amount`` is in resource units (cycles, bytes).  ``weight`` scales the
    job's share: a weight-2 job gets twice the rate of a weight-1 job.  The
    job's :attr:`done` event fires, with no value (the job as its value
    made a job-event cycle), when the full amount has been served.
    ``owner`` is whoever the job's service is charged to (a CPU's process
    tag, a medium's host pair); the resource only compares it.

    :attr:`remaining` is a *view*: while the job is in service it is
    derived from the owning scheduler's virtual clock (as of the last
    settle point, matching how the legacy scheduler only updated it at
    settle points); once the job finishes or is aborted the final value
    is pinned on the job itself.
    """

    __slots__ = ("amount", "weight", "owner", "done", "started_at",
                 "finished_at", "_resource", "_detached_remaining",
                 "_finish_tag")

    def __init__(self, amount: float, weight: float = 1.0,
                 owner: Any = None):
        if amount < 0:
            raise ValueError(f"negative job amount: {amount}")
        if weight <= 0:
            raise ValueError(f"job weight must be positive: {weight}")
        self.amount = float(amount)
        self.weight = float(weight)
        self.owner = owner
        self.done = Event()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: the scheduler currently serving this job (None once detached)
        self._resource: Optional[Any] = None
        self._detached_remaining = float(amount)
        #: virtual time at which the job completes (fixed at join)
        self._finish_tag = 0.0

    @property
    def remaining(self) -> float:
        """Work left, in resource units, as of the last settle point."""
        resource = self._resource
        if resource is None:
            return self._detached_remaining
        return resource._job_remaining(self)

    @property
    def elapsed(self) -> Optional[float]:
        """Wall-clock (simulated) duration, once finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class FairShareResource:
    """Processor-sharing server with dynamic membership, in virtual time.

    The resource serves ``capacity`` units per second, split among active
    jobs in proportion to their weights.  Capacity may be changed at
    runtime (e.g. a link whose bandwidth drops); in-flight jobs adapt
    from that moment on.  Zero capacity is a legal *degraded* state
    (see :meth:`set_capacity`).

    Costs: submit/abort/capacity change are O(1) (amortized — a
    completion timer is re-armed only when the next completion moves
    earlier), each completion is O(log n) heap maintenance.  The legacy
    scheduler this replaces (now a test oracle) paid O(n) per change
    and O(n²) per contention burst.

    An optional ``on_utilization_change`` callback receives
    ``(now, busy: bool, active_jobs: int)`` on every membership or capacity
    change — the hook power meters and load monitors attach to.  An
    optional ``on_detach`` callback receives each job as it leaves
    service (finished or aborted, its :attr:`~FairShareJob.remaining`
    pinned), before any ``done`` callback runs — the point where a CPU
    charges the job's cycles to its owner.

    :attr:`jobs` is the one table of jobs in service, in submission
    order; :meth:`jobs_of` and :meth:`abort_jobs_of` read and abort one
    owner's share of it.
    """

    __slots__ = ("_sim", "_capacity", "name", "_on_utilization_change",
                 "_on_detach", "total_served", "jobs", "_weight_total",
                 "_virtual", "_vt_as_of", "_heap", "_heap_seq", "_heap_dead",
                 "_timer")

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        name: str = "resource",
        on_utilization_change: Optional[Callable[[float, bool, int], None]] = None,
        on_detach: Optional[Callable[[FairShareJob], None]] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self._sim = sim
        self._capacity = float(capacity)
        self.name = name
        self._on_utilization_change = on_utilization_change
        self._on_detach = on_detach
        #: cumulative units served (for utilization accounting)
        self.total_served = 0.0
        #: jobs in service, in submission order (a dict used as an
        #: ordered set; the heap also holds tombstones, this doesn't).
        #: Read it, never write it: submit and _detach maintain it.
        self.jobs: Dict[FairShareJob, None] = {}
        #: maintained sum of live weights — the O(1) replacement for the
        #: legacy per-call rescan; reset to exactly 0.0 at idle so float
        #: drift cannot accumulate across busy periods
        self._weight_total = 0.0
        #: V(t), cumulative service per unit weight
        self._virtual = 0.0
        #: simulated time V was last advanced to
        self._vt_as_of = sim.now
        #: min-heap of (finish_tag, seq, job); tombstones stay until popped
        self._heap: List[Tuple[float, int, FairShareJob]] = []
        self._heap_seq = 0
        self._heap_dead = 0
        #: the armed completion timer (lazy-cancelled when superseded)
        self._timer: Optional[TimerHandle] = None

    # -- public API -----------------------------------------------------------

    @property
    def capacity(self) -> float:
        """Total service rate in units/second."""
        return self._capacity

    @property
    def active_jobs(self) -> int:
        """Number of jobs currently being served."""
        return len(self.jobs)

    @property
    def busy(self) -> bool:
        """True while at least one job is in service."""
        return bool(self.jobs)

    def set_capacity(self, capacity: float) -> None:
        """Change the service rate; in-flight jobs reschedule immediately.

        Zero is a legal *degraded* state (a fully-jammed medium, a
        stalled CPU): in-flight jobs stop making progress and resume
        when capacity returns.  Creating a resource with zero capacity
        is still rejected — that is a configuration error, not a fault.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative: {capacity}")
        self._settle()
        self._capacity = float(capacity)
        self._reschedule()
        self._notify()

    def submit(self, amount: float, weight: float = 1.0,
               owner: Any = None) -> FairShareJob:
        """Add a job for *amount* units; returns it with a ``done`` event.

        An empty job (*amount* zero) finishes at once and never enters
        :attr:`jobs`.
        """
        job = FairShareJob(amount, weight=weight, owner=owner)
        now = self._sim.now
        job.started_at = now
        if job.amount <= 0:
            job._detached_remaining = 0.0
            job.finished_at = now
            job.done.succeed()
            return job
        self._settle()
        job._resource = self
        job._finish_tag = self._virtual + job.amount / job.weight
        self.jobs[job] = None
        self._weight_total += job.weight
        self._heap_seq += 1
        heapq.heappush(self._heap, (job._finish_tag, self._heap_seq, job))
        self._reschedule()
        if self._on_utilization_change is not None:
            self._on_utilization_change(now, True, len(self.jobs))
        return job

    def cancel(self, job: FairShareJob) -> None:
        """Remove an unfinished job; its ``done`` event fails."""
        self.abort(job, SimulationError(f"job cancelled on {self.name}"))

    def abort(self, job: FairShareJob,
              exc: Optional[BaseException] = None) -> bool:
        """Remove an unfinished job, failing ``done`` with *exc*.

        The typed-exception twin of :meth:`cancel`: fault injection uses
        it to make in-flight transfers fail with an error the RPC layer
        can classify (retryable vs fatal).  Returns True if the job was
        active; aborting a finished or foreign job is a no-op.
        """
        if job._resource is not self:
            return False
        self._settle()
        self._detach(job, self._job_remaining(job))
        self._heap_dead += 1
        self._maybe_compact()
        job.done.fail(exc if exc is not None
                      else SimulationError(f"job aborted on {self.name}"))
        self._reschedule()
        self._notify()
        return True

    def abort_all(self, exc_factory: Callable[[], BaseException]) -> int:
        """Abort every active job; returns how many were aborted.

        ``exc_factory`` builds a fresh exception per job — exception
        instances must not be shared across waiters whose tracebacks
        will diverge.  A job that a ``done`` callback aborts first is
        not counted twice.
        """
        return sum(self.abort(job, exc_factory()) for job in list(self.jobs))

    def jobs_of(self, owner: Any) -> List[FairShareJob]:
        """*owner*'s jobs in service, in submission order."""
        return [job for job in self.jobs if job.owner == owner]

    def abort_jobs_of(self, owner: Any,
                      exc_factory: Callable[[], BaseException]) -> int:
        """:meth:`abort_all`, for *owner*'s jobs only."""
        return sum(self.abort(job, exc_factory())
                   for job in self.jobs_of(owner))

    def run(self, amount: float, weight: float = 1.0) -> Generator:
        """Process-style helper: ``yield from resource.run(amount)``."""
        job = self.submit(amount, weight=weight)
        yield job.done
        return job

    def rate_for_new_job(self, weight: float = 1.0) -> float:
        """Rate a hypothetical new job would receive right now.

        This is the quantity resource monitors *predict* with: the fair
        share of capacity given current competition.  A zero-capacity
        (jammed) resource serves new jobs at rate zero.  O(1): the total
        weight is maintained incrementally, never rescanned — monitors
        poll this on every snapshot.
        """
        if self._capacity <= 0:
            return 0.0
        return self._capacity * weight / (self._weight_total + weight)

    # -- internals ---------------------------------------------------------------

    def _total_weight(self) -> float:
        """The maintained running total of live weights (O(1))."""
        return self._weight_total

    def _rescan_weight(self) -> float:
        """O(n) recomputation of the total weight, for invariant checks.

        Tests assert ``_total_weight() == _rescan_weight()``; production
        code must never call this.
        """
        return sum(job.weight for job in self.jobs)

    def _job_remaining(self, job: FairShareJob) -> float:
        left = job.weight * (job._finish_tag - self._virtual)
        return left if left > 0.0 else 0.0

    def _settle(self) -> None:
        """Advance the virtual clock to `now` — O(1).

        While busy, ``V`` advances at ``capacity / total_weight`` and
        served work accumulates at ``capacity``; the per-job remaining
        amounts follow implicitly through their fixed finish tags.
        """
        now = self._sim.now
        elapsed = now - self._vt_as_of
        if elapsed > 0.0:
            if self.jobs and self._capacity > 0.0:
                self._virtual += self._capacity * elapsed / self._weight_total
                self.total_served += self._capacity * elapsed
            self._vt_as_of = now

    def _detach(self, job: FairShareJob, remaining: float) -> None:
        """Remove *job* from service accounting.

        Heap bookkeeping is the caller's: the completion path pops the
        entry before detaching, the abort path leaves it behind as a
        tombstone and counts it.
        """
        job._detached_remaining = remaining
        job._resource = None
        del self.jobs[job]
        self._weight_total -= job.weight
        if not self.jobs:
            self._weight_total = 0.0
        if self._on_detach is not None:
            self._on_detach(job)

    def _maybe_compact(self) -> None:
        """Rebuild the heap when tombstones dominate it.

        Lazy discard alone is enough for completion-heavy workloads (the
        tombstones surface and vanish), but a churn-heavy workload that
        aborts long jobs behind short ones could otherwise grow the heap
        without bound.  Rebuilding keeps the original (tag, seq) keys,
        so ordering — and therefore determinism — is unchanged.
        """
        if self._heap_dead > 32 and self._heap_dead * 2 > len(self._heap):
            self._heap = [entry for entry in self._heap
                          if entry[2]._resource is self]
            heapq.heapify(self._heap)
            self._heap_dead = 0

    def _reschedule(self) -> None:
        """Arm (or keep) the completion timer for the earliest finish tag.

        Tombstones on top of the heap are discarded first.  The armed
        timer is *kept* when it already fires at or before the next
        completion — it will simply find nothing to complete and re-arm
        — and lazily cancelled otherwise, so membership churn does not
        pile stale timers into the kernel heap the way the legacy
        token-check protocol did.  ``self._timer`` is never a cancelled
        handle: every cancel here drops it, and a firing timer clears it
        in :meth:`_on_timer` before anything else runs.
        """
        heap = self._heap
        while heap and heap[0][2]._resource is not self:
            heapq.heappop(heap)
            self._heap_dead -= 1
        timer = self._timer
        if not heap or self._capacity <= 0.0:
            # Idle or stalled: no completion in sight.  The next submit
            # or set_capacity() re-arms.
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        delay = ((heap[0][0] - self._virtual)
                 * self._weight_total / self._capacity)
        if delay < 0.0:
            delay = 0.0
        if timer is not None:
            if timer.when <= self._sim.now + delay:
                return  # existing timer fires in time; keep it
            timer.cancel()
        self._timer = self._sim.timer(delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._settle()
        now = self._sim.now
        virtual = self._virtual
        heap = self._heap
        # A job whose residual service is below the clock's float
        # resolution can never finish by integration (now + dt == now);
        # treat anything under a picosecond of service as done — the
        # same tolerance the legacy scheduler used (max(1e-9, ...)).
        tolerance = 1e-12 * self._capacity
        if tolerance < 1e-9:
            tolerance = 1e-9
        finished: List[FairShareJob] = []
        while heap:
            tag, _seq, job = heap[0]
            if job._resource is not self:
                heapq.heappop(heap)
                self._heap_dead -= 1
                continue
            left = job.weight * (tag - virtual)
            if left > tolerance:
                # Not done — unless its residual *time* underflows the
                # clock (now + dt == now), in which case integration can
                # never retire it and we must, or the timer would re-arm
                # at `now` forever.
                delay = ((tag - virtual)
                         * self._weight_total / self._capacity)
                if now + delay > now:
                    break
            heapq.heappop(heap)
            self._detach(job, 0.0)
            job.finished_at = now
            finished.append(job)
        for job in finished:
            job.done.succeed()
        self._reschedule()
        if finished and self._on_utilization_change is not None:
            active = len(self.jobs)
            self._on_utilization_change(now, active > 0, active)

    def _notify(self) -> None:
        if self._on_utilization_change is not None:
            active = len(self.jobs)
            self._on_utilization_change(self._sim.now, active > 0, active)
