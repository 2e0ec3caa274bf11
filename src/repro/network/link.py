"""Network links: point-to-point pipes and shared media.

Two kinds of interconnect appear in the paper's testbeds:

* a **serial link** between the Itsy and the T20 (the Itsy lacks a
  PCMCIA slot) — a dedicated point-to-point pipe, and
* a **shared 2 Mb/s wireless network** connecting the 560X and servers A
  and B — a broadcast medium where concurrent transfers contend for the
  same airtime.

Both are one host pair's :class:`MediumView`: a latency plus a share of
a medium's byte-rate :class:`~repro.sim.resources.FairShareResource`;
the difference is scope.  A :class:`SharedMedium` hands the *same*
resource to every attached pair, so simultaneous transfers split the
bandwidth — which is what makes Coda reintegration traffic slow down a
concurrent RPC, an effect Spectra's predictions must capture.  A
:class:`Link` is the view of a private medium with one pair.  Each
transfer's byte job is owned by its view, so a view reads and aborts
its own transfers in the resource's job table.

Links can also *fail* mid-transfer: severing a link (a partition, a
server crash) aborts its in-flight byte jobs with
:class:`TransferAbortedError`, which propagates up through the waiting
RPC exchange exactly like a real connection reset.  Bandwidth may be
degraded all the way to zero (a jammed medium): in-flight transfers
stall until capacity returns, and transfer-time estimates become
infinite rather than dividing by zero.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..sim import FairShareResource, Simulator, Timeout


class TransferAbortedError(RuntimeError):
    """An in-flight transfer was killed by a link failure.

    Raised inside the process waiting on the transfer when the link is
    severed (partition, server crash) while bytes are still moving.  The
    RPC layer classifies it as *retryable*: the link may heal, or
    another server may serve the request.
    """


class SharedMedium:
    """A broadcast medium (wireless LAN) shared by many endpoints.

    :meth:`attach` returns a :class:`MediumView` for one endpoint pair;
    all views share the medium's bandwidth resource so contention is
    global, while per-pair latency may differ.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 default_latency_s: float = 0.002, name: str = "medium"):
        self._sim = sim
        self.name = name
        self.default_latency_s = default_latency_s
        self._resource = FairShareResource(sim, bandwidth_bps, name=f"{name}.bw")
        self._views: List["MediumView"] = []

    @property
    def bandwidth_bps(self) -> float:
        return self._resource.capacity

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        self._resource.set_capacity(bandwidth_bps)

    @property
    def active_transfers(self) -> int:
        return self._resource.active_jobs

    def attach(self, latency_s: Optional[float] = None,
               name: str = "") -> "MediumView":
        """Create a pairwise view of this medium with its own latency."""
        view = MediumView(
            self,
            latency_s if latency_s is not None else self.default_latency_s,
            name=name or f"{self.name}.view{len(self._views)}",
        )
        self._views.append(view)
        return view


class MediumView:
    """One host pair's link: a latency plus a share of a medium's bandwidth.

    ``bandwidth`` is bytes/second for the medium as a whole; concurrent
    transfers of every pair on it, in either direction, share it fairly
    (full-duplex serial lines and half-duplex radios both approximate
    this under load).
    """

    def __init__(self, medium: SharedMedium, latency_s: float, name: str):
        self._sim = medium._sim
        self._resource = medium._resource
        self.latency_s = latency_s
        self.name = name

    @property
    def bandwidth_bps(self) -> float:
        """Nominal capacity of the medium, bytes/second."""
        return self._resource.capacity

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the medium's capacity (the paper's 'network scenario'
        halves it).

        Zero is legal — a fully-jammed medium; in-flight transfers stall
        until bandwidth returns.
        """
        self._resource.set_capacity(bandwidth_bps)

    @property
    def active_transfers(self) -> int:
        """This pair's transfers in flight."""
        return len(self._resource.jobs_of(self))

    def abort_transfers(self, reason: str = "") -> int:
        """Fail this pair's in-flight transfers with :class:`TransferAbortedError`.

        Returns the number of transfers aborted.  Called when the pair is
        severed mid-operation (fault injection, partitions); the rest of
        a shared medium's traffic keeps flowing.
        """
        message = reason or f"transfer aborted: link {self.name!r} severed"
        return self._resource.abort_jobs_of(
            self, lambda: TransferAbortedError(message)
        )

    def transmit(self, nbytes: int) -> Generator:
        """Process: move *nbytes* across the link; returns elapsed seconds.

        Time = one-way latency + fair share of bandwidth.  Zero-byte
        transfers still pay latency (a bare datagram).
        """
        start = self._sim.now
        yield Timeout(self.latency_s)
        if nbytes > 0:
            resource = self._resource
            job = resource.submit(float(nbytes), owner=self)
            try:
                yield job.done
            except BaseException:
                # An abort (link severed) has already withdrawn the job.
                # Anything else delivered here — an Interrupt from an
                # RPC timeout, a generator close — must not leave the
                # job consuming bandwidth forever.
                resource.abort(job)  # no-op when finished or aborted
                raise
        return self._sim.now - start

    def estimate_transfer_time(self, nbytes: int) -> float:
        """Analytic estimate for a new transfer given current contention.

        A zero-rate (jammed) link yields ``inf``: the transfer would
        never complete, which the solver scores as infeasible.
        """
        rate = self._resource.rate_for_new_job()
        if nbytes <= 0:
            return self.latency_s
        if rate <= 0:
            return float("inf")
        return self.latency_s + nbytes / rate


class Link(MediumView):
    """A dedicated point-to-point pipe: the one pair of a private medium."""

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 latency_s: float, name: str = "link"):
        if latency_s < 0:
            raise ValueError(f"negative latency: {latency_s}")
        super().__init__(SharedMedium(sim, bandwidth_bps, name=name),
                         float(latency_s), name)
