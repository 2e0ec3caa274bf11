"""Multi-client contention study (extension).

The paper evaluates one client at a time.  In a real pervasive
environment several mobile clients forage from the *same* servers and
share the *same* wireless medium — and each client's Spectra only sees
the others through its resource monitors: server status polls report a
lower predicted CPU rate when another client's operation is in service,
and the passive network monitor observes slower transfers under
contention.

This experiment puts N identical 560X clients on one wireless LAN with
one fast compute server and has them run Latex simultaneously.  It
measures, per client count:

* mean operation latency when everyone offloads blindly
  (always-remote), versus
* mean latency when every client runs its own Spectra — which should
  *spill* to local execution (or stay remote) per the observed load,
  beating the blind policy as contention grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..apps import LatexApplication
from ..scenarios.spec import (
    AppSpec,
    ClientSpec,
    HostSpec,
    LinkSpec,
    MediumSpec,
    ScenarioSpec,
)
from ..scenarios.library import (
    WIRED_BANDWIDTH_BPS,
    WIRED_LATENCY_S,
    WIRELESS_BANDWIDTH_BPS,
    WIRELESS_LATENCY_S,
)
from ..sim import AllOf, Timeout
from .runner import train_world


@dataclass
class ContentionCell:
    """Mean per-operation latency for one client count."""

    n_clients: int
    spectra_mean_s: float
    always_remote_mean_s: float
    #: how many of the Spectra clients chose local execution
    spectra_local_count: int

    @property
    def advantage(self) -> float:
        """always-remote latency over Spectra latency (>1: Spectra wins)."""
        return self.always_remote_mean_s / self.spectra_mean_s


def _contention_spec(n_clients: int) -> ScenarioSpec:
    """The N-client contention world as a declarative scenario spec.

    Topology-wise this is the canned ``flash-crowd`` scenario at an
    arbitrary client count; the measurement loop below stays bespoke
    (staggered simultaneous arrivals, blind-remote vs Spectra), so the
    spec's workload section is a placeholder the runner never drives.
    """
    client_names = [f"client-{i}" for i in range(n_clients)]
    links = [
        LinkSpec(a="server", b="fs", bandwidth_bps=WIRED_BANDWIDTH_BPS,
                 latency_s=WIRED_LATENCY_S),
    ]
    for name in client_names:
        links.append(LinkSpec(a=name, b="server", medium="wireless"))
        links.append(LinkSpec(a=name, b="fs", medium="wireless"))
    return ScenarioSpec(
        name=f"contention-{n_clients}",
        description="N identical 560X clients contending for one server",
        duration_s=60.0,
        hosts=tuple(
            [HostSpec(name="server", profile="server-b")]
            + [HostSpec(name=name, profile="ibm-560x", role="client")
               for name in client_names]
        ),
        media=(
            MediumSpec(name="wireless", bandwidth_bps=WIRELESS_BANDWIDTH_BPS,
                       latency_s=WIRELESS_LATENCY_S),
        ),
        links=tuple(links),
        apps=(
            AppSpec(kind="latex",
                    options={"documents": ["small"], "warm_outputs": True}),
        ),
        clients=tuple(
            ClientSpec(host=name, app="latex", servers=("server",))
            for name in client_names
        ),
    )


def _build_world(n_clients: int):
    """The trained N-client world: each client trains in turn (so
    training does not overlap — the paper's regimen, per client)."""
    world = train_world(_contention_spec(n_clients), ["small"] * 8,
                        LatexApplication.format)
    return world.sim, [(c.node, c.client, c.app) for c in world.clients]


#: Arrival stagger between clients, seconds.  Real users do not hit
#: "compile" in the same millisecond; a sub-second spread is enough for
#: later arrivals' status polls to observe the earlier load.
ARRIVAL_STAGGER_S = 0.8


def _simultaneous_run(sim, clients, force_remote: bool) -> Tuple[float, int]:
    """All clients format (staggered arrivals); returns (mean, local count)."""
    reports = []

    def one(app, client, delay):
        yield Timeout(delay)
        # Each client refreshes server status just before deciding — the
        # periodic poll a deployed client would be running anyway.
        yield from client.poll_servers()
        force = None
        if force_remote:
            force = next(a for a in app.spec.alternatives(["server"])
                         if a.plan.uses_remote)
        report = yield from app.format("small", force=force)
        reports.append(report)

    processes = [
        sim.spawn(one(app, client, i * ARRIVAL_STAGGER_S),
                  name=f"op@{client.host.name}")
        for i, (_node, client, app) in enumerate(clients)
    ]

    def barrier():
        yield AllOf(processes)

    sim.run_process(barrier())
    mean = sum(r.elapsed_s for r in reports) / len(reports)
    local = sum(1 for r in reports if not r.alternative.plan.uses_remote)
    return mean, local


def run_contention_cell(n_clients: int) -> ContentionCell:
    """One cell: N clients, blind-remote vs per-client Spectra.

    Separate worlds for the two policies so one run's cache/model drift
    cannot leak into the other.
    """
    sim, clients = _build_world(n_clients)
    remote_mean, _ = _simultaneous_run(sim, clients, force_remote=True)

    sim, clients = _build_world(n_clients)
    spectra_mean, local_count = _simultaneous_run(sim, clients,
                                                  force_remote=False)
    return ContentionCell(
        n_clients=n_clients,
        spectra_mean_s=spectra_mean,
        always_remote_mean_s=remote_mean,
        spectra_local_count=local_count,
    )


def run_contention_experiment(client_counts=(1, 2, 4, 8)
                              ) -> List[ContentionCell]:
    return [run_contention_cell(n) for n in client_counts]


def render_contention_table(cells: List[ContentionCell]) -> str:
    title = ("Extension: multi-client contention (simultaneous Latex, "
             "one shared server)")
    lines = [title, "=" * len(title),
             f"{'clients':>8s} {'always-remote':>14s} {'spectra':>9s} "
             f"{'advantage':>10s} {'went local':>11s}"]
    for cell in cells:
        lines.append(
            f"{cell.n_clients:8d} {cell.always_remote_mean_s:13.2f}s "
            f"{cell.spectra_mean_s:8.2f}s {cell.advantage:9.2f}x "
            f"{cell.spectra_local_count:11d}"
        )
    return "\n".join(lines)
