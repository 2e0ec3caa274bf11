"""CPU model: a fair-share processor with per-owner cycle accounting.

The Spectra CPU monitor needs two things from a processor:

* **supply prediction** — "how many cycles/second would a new job get?",
  derived from recent competition (paper §3.3.1), and
* **demand observation** — "how many cycles did *this* operation use?",
  which on Linux comes from ``/proc``; here it comes from per-owner
  accounting on the simulated processor.

Both are provided by :class:`CPU`, which layers owner tags and a smoothed
utilization estimate on top of :class:`~repro.sim.resources.FairShareResource`.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from ..sim import FairShareJob, FairShareResource, Simulator


class CPU:
    """A timeshared processor serving cycle-denominated jobs.

    Jobs are tagged with an *owner* string (analogous to a pid).  The CPU
    maintains cumulative cycles served per owner, which the CPU monitor
    reads before and after an operation — exactly how Spectra samples
    ``/proc`` statistics on real Linux.  Jobs in flight are read from the
    resource's job table, through each job's ``owner``; the CPU keeps
    only the finished cycles.

    ``on_utilization_change(now, busy, active_jobs)`` fires on every
    scheduling change so power meters can track CPU-active time.
    """

    #: smoothing horizon in seconds (recent load matters most)
    SMOOTHING_HORIZON = 5.0

    def __init__(
        self,
        sim: Simulator,
        cycles_per_second: float,
        name: str = "cpu",
        on_utilization_change: Optional[Callable[[float, bool, int], None]] = None,
    ):
        self._sim = sim
        self.name = name
        # The power hook goes straight to the resource: membership
        # changes resync the external load in submit and _retire, and
        # the cycle rate never changes after construction.
        self._resource = FairShareResource(
            sim,
            cycles_per_second,
            name=f"{name}.cycles",
            on_utilization_change=on_utilization_change,
            on_detach=self._retire,
        )
        # Cycles of each owner's finished jobs, kept from the owner's
        # first submit or read until :meth:`release`.
        self._finished_cycles: Dict[str, float] = {}
        self._external_owners: set = set()
        # Exponentially smoothed *external* load (total fair-share weight
        # of background jobs, a load average), updated at scheduling
        # changes and queries.
        self._smooth_load = 0.0
        self._last_util_sample = sim.now
        self._last_external_weight = 0.0

    # -- supply side ------------------------------------------------------------

    @property
    def cycles_per_second(self) -> float:
        """Nominal clock rate in cycles/second."""
        return self._resource.capacity

    @property
    def active_jobs(self) -> int:
        return self._resource.active_jobs

    @property
    def busy(self) -> bool:
        return self._resource.busy

    def instantaneous_competition(self, exclude_owner: Optional[str] = None) -> float:
        """Total weight of jobs currently running (optionally minus one owner).

        A new weight-1 job arriving now would get ``capacity / (comp + 1)``
        cycles/second.
        """
        return sum(
            job.weight
            for job in self._resource.jobs
            if job.remaining > 0 and job.owner != exclude_owner
        )

    def _external_weight(self) -> float:
        """Weight of currently running *external* (background) jobs."""
        return sum(
            job.weight
            for job in self._resource.jobs
            if job.remaining > 0 and job.owner in self._external_owners
        )

    def smoothed_load(self) -> float:
        """Exponentially smoothed external load (competing weight).

        This mirrors the paper's "smoothed estimate of recent load": the
        CPU monitor assumes background load continues at this level.  A
        steady weight-N background job smooths toward N.
        """
        self._sample_utilization()
        return self._smooth_load

    def smoothed_utilization(self) -> float:
        """Busy-fraction view of :meth:`smoothed_load`, clamped to [0, 1]."""
        return min(1.0, self.smoothed_load())

    def predicted_rate_for_new_job(self, exclude_owner: Optional[str] = None) -> float:
        """Cycles/second a new fair-share job is predicted to receive.

        Combines instantaneous competition with the smoothed utilization
        estimate: competition that has persisted gets full credit, a
        momentary blip is discounted.
        """
        competing = self.instantaneous_competition(exclude_owner=exclude_owner)
        # Blend instantaneous competition with history.  When there is no
        # current competition but recent history shows load, be slightly
        # pessimistic; when there is competition, trust it.
        # The smoothed external load *is* the predicted competing weight.
        historical = self.smoothed_load()
        effective = max(competing, historical)
        return self.cycles_per_second / (effective + 1.0)

    # -- demand side --------------------------------------------------------------

    def submit(self, cycles: float, owner: str = "anon", weight: float = 1.0,
               external: bool = False) -> FairShareJob:
        """Queue *cycles* of work attributed to *owner*.

        ``external`` marks competing load that is *not* part of a Spectra
        operation (background processes).  Only external load feeds the
        smoothed competition estimate — the paper's CPU monitor measures
        "the percentage of cycles recently used by other processes", so
        an operation's own burst must not be projected forward as if it
        were persistent background load.
        """
        if external:
            # Jobs the owner already has running now count as external.
            self._external_owners.add(owner)
        job = self._resource.submit(cycles, weight=weight, owner=owner)
        if job.finished_at is None:  # in service, not an empty job
            if owner not in self._finished_cycles:
                self._finished_cycles[owner] = 0.0
        else:
            self._finished_cycles[owner] = (
                self._finished_cycles.get(owner, 0.0) + job.amount
            )
        if self._external_owners:
            self._resync_external()
        return job

    def run(self, cycles: float, owner: str = "anon", weight: float = 1.0) -> Generator:
        """Process-style helper: ``yield from cpu.run(cycles, owner=...)``."""
        job = self.submit(cycles, owner=owner, weight=weight)
        yield job.done
        return job

    def cancel(self, job: FairShareJob) -> None:
        """Abort a queued/in-flight job (used by background load control).

        The resource retires the job at once, charging its partial cycles
        to its owner and resyncing the external load.  A finished job is
        left alone.
        """
        self._resource.cancel(job)

    def cancel_jobs_of(self, owner: str) -> None:
        """Cancel every in-flight job of *owner*.

        For work nobody will wait for any more (a dispatch abandoned
        mid-service).  Each job retires as :meth:`cancel` retires it,
        charging its partial cycles to *owner*.
        """
        for job in self._resource.jobs_of(owner):
            self.cancel(job)

    def cycles_used_by(self, owner: str) -> float:
        """Cumulative cycles served to *owner* — the ``/proc`` equivalent.

        Includes partially served in-flight jobs, so sampling before and
        after an operation yields exactly the cycles the operation burned.
        A read opens *owner*'s ledger entry, like a submit, until
        :meth:`release`: whoever reads an operation's owner must release
        it after its last read, or the ledger keeps one entry per
        operation again.
        """
        self._resource._settle()
        in_flight = sum(
            job.amount - job.remaining
            for job in self._resource.jobs
            if job.owner == owner
        )
        return self._finished_cycles.setdefault(owner, 0.0) + in_flight

    def release(self, owner: str) -> None:
        """Forget *owner*'s cycles: its last :meth:`cycles_used_by` read is done.

        Operation owners are unique per operation, so every reader of
        one (the CPU monitors' ``stop_op``, the Spectra server when its
        requests of the operation end) calls this after its last read;
        without it the ledger grows by one entry per operation.  The
        caller must also be the owner's last open reader: a release under
        another reader drops cycles that reader is still measuring.

        A job of *owner* still in flight runs on; when it finishes, its
        cycles are charged only if *owner* was read or submitted to
        again since the release.  A reader that starts after that job
        finished never sees its cycles, so nothing reads a difference
        that includes them.
        """
        self._finished_cycles.pop(owner, None)

    # -- internals ---------------------------------------------------------------

    def _retire(self, job: FairShareJob) -> None:
        """Charge a job leaving service (finished or cancelled) to its owner.

        The resource calls this as it detaches the job, before any
        ``done`` callback runs: a process woken by one completion reads
        every job that finished at the same instant as finished.
        """
        owner = job.owner
        finished = self._finished_cycles.get(owner)
        if finished is not None:  # None: released, and not read since
            self._finished_cycles[owner] = (
                finished + (job.amount - job.remaining)
            )
        if self._external_owners:
            self._resync_external()

    def _sample_utilization(self) -> None:
        """Fold the interval since the last sample into the smoothed estimate.

        Only *external* (background) load counts: the paper's monitor
        measures competition from other processes, not from the
        operations Spectra itself placed.
        """
        now = self._sim.now
        elapsed = now - self._last_util_sample
        if elapsed <= 0:
            return
        alpha = min(1.0, elapsed / self.SMOOTHING_HORIZON)
        self._smooth_load += alpha * (self._last_external_weight - self._smooth_load)
        self._last_util_sample = now

    def _resync_external(self) -> None:
        """Close the current smoothing interval and re-snapshot the
        external competing weight (called whenever membership changes —
        crucially *after* the resource's job table reflects the change).

        Callers skip it until an external owner first submits: until
        then the smoothed load is 0.0, and folding in an external weight
        of 0.0 would keep it exactly 0.0."""
        self._sample_utilization()
        self._last_external_weight = self._external_weight()


class BackgroundLoad:
    """A synthetic CPU-intensive competitor, like the paper's load jobs.

    ``nprocesses`` models that many always-runnable processes: the load
    holds a fair-share job of that weight, so a foreground operation
    receives ``1/(nprocesses+1)`` of the CPU — the fair-share outcome of
    competing with ``nprocesses`` spinners on a real kernel.
    """

    #: Cycles granted to the spinner each refill; large enough that refills
    #: are rare, small enough that cancellation settles promptly.
    CHUNK_SECONDS = 3600.0

    def __init__(self, sim: Simulator, cpu: CPU, nprocesses: int = 1,
                 owner: str = "background"):
        if nprocesses < 1:
            raise ValueError("nprocesses must be >= 1")
        self._sim = sim
        self._cpu = cpu
        self._weight = float(nprocesses)
        self.owner = owner
        self._job = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Begin competing for the CPU."""
        if self._running:
            return
        self._running = True
        self._refill()

    def stop(self) -> None:
        """Stop competing; the in-flight chunk is cancelled."""
        if not self._running:
            return
        self._running = False
        if self._job is not None:
            self._cpu.cancel(self._job)
            self._job = None

    def _refill(self) -> None:
        if not self._running:
            return
        cycles = self._cpu.cycles_per_second * self.CHUNK_SECONDS
        self._job = self._cpu.submit(cycles, owner=self.owner,
                                     weight=self._weight, external=True)

        def on_done(_event) -> None:
            if self._running:
                self._refill()

        self._job.done.add_callback(on_done)
