"""The benchmark's workloads.

The two scenario workloads are built here from the ``repro.scenarios.spec``
dataclasses rather than taken from the canned library, so that editing a
canned scenario cannot change what the benchmark measures.  Every client
is a closed loop: the runner issues a client's next operation only after
the previous one completes, so overload shows up as simulated latency,
not as a growing backlog.

The ``figures`` workload regenerates the paper's Figures 3-10 through the
CLI and compares each with its committed golden.
"""

from __future__ import annotations

import pathlib

from repro.scenarios.spec import (
    AppSpec,
    ArrivalSpec,
    ClientSpec,
    HostSpec,
    LinkSpec,
    MediumSpec,
    ScenarioSpec,
    ThinkSpec,
    TimelineEventSpec,
)

WIRELESS_BPS = 250_000.0
WIRELESS_LATENCY_S = 0.002
WIRED_BPS = 500_000.0
WIRED_LATENCY_S = 0.001

METRO_CELLS = 8
METRO_CLIENTS_PER_CELL = 25

LATEX_CLIENTS = 16
LATEX_SERVERS = ("server-a", "server-b")
#: each outage keeps one server down this long ...
OUTAGE_S = 60.0
#: ... one outage starts every OUTAGE_EVERY_S, the first at FIRST_OUTAGE_S,
#: alternating between the two servers
OUTAGE_EVERY_S = 200.0
FIRST_OUTAGE_S = 100.0

#: figure name -> golden file under benchmarks/results/
FIGURE_GOLDENS = {
    "fig3": "fig3_speech_time",
    "fig4": "fig4_speech_energy",
    "fig5": "fig5_latex_small",
    "fig6": "fig6_latex_large",
    "fig7": "fig7_latex_energy",
    "fig8": "fig8_pangloss_accuracy",
    "fig9": "fig9_pangloss_utility",
    "fig10": "fig10_overhead",
}
#: the CLI and the pytest goldens title fig4 and fig9 differently, so the
#: comparison starts below the title and its underline
GOLDEN_FIRST_LINE = 3


def metro(seed: int, n_ops: int = 45, duration_s: float = 900.0) -> ScenarioSpec:
    """200 clients in 8 cells issuing near-free null operations.

    Same shape as the canned ``metro`` scenario, scaled up in operations:
    the kernel, the fair-share media, the resource snapshot and the
    per-operation decision dominate, while payloads stay tiny, Coda idles
    and prediction is trivial.
    """
    hosts, media, links, clients = [], [], [], []
    for cell in range(METRO_CELLS):
        server = f"cell{cell}-server"
        medium = f"cell-{cell}"
        hosts.append(HostSpec(name=server, profile="server-b"))
        media.append(MediumSpec(name=medium, bandwidth_bps=WIRELESS_BPS,
                                latency_s=WIRELESS_LATENCY_S))
        links.append(LinkSpec(a=server, b="fs", bandwidth_bps=WIRED_BPS,
                              latency_s=WIRED_LATENCY_S))
        for i in range(METRO_CLIENTS_PER_CELL):
            name = f"m{cell}-{i}"
            hosts.append(HostSpec(name=name, profile="ibm-560x", role="client"))
            links.append(LinkSpec(a=name, b=server, medium=medium))
            links.append(LinkSpec(a=name, b="fs", medium=medium))
            clients.append(ClientSpec(
                host=name, app="null", servers=(server,),
                arrivals=ArrivalSpec(kind="poisson", rate_ops_per_s=0.05,
                                     n_ops=n_ops),
                training_ops=1,
            ))
    return ScenarioSpec(
        name="bench-metro",
        description="200 null-operation clients over 8 wireless cells",
        duration_s=duration_s,
        seed=seed,
        hosts=tuple(hosts),
        media=tuple(media),
        links=tuple(links),
        apps=(AppSpec(kind="null"),),
        clients=tuple(clients),
    )


def latex_crowd(seed: int, n_ops: int = 200,
                duration_s: float = 11_000.0) -> ScenarioSpec:
    """16 battery-powered Latex clients on one medium, two churning servers.

    Bulk Coda fetches, output writes, reintegration, RPC retries and
    failover on a contended medium; the passive network log grows to
    thousands of records, so per-operation cost grows with history.
    """
    clients = [f"latex-{i}" for i in range(LATEX_CLIENTS)]
    hosts = [HostSpec(name=s, profile=s) for s in LATEX_SERVERS]
    hosts += [HostSpec(name=c, profile="ibm-560x", role="client",
                       battery_powered=True) for c in clients]
    links = [LinkSpec(a=s, b="fs", bandwidth_bps=WIRED_BPS,
                      latency_s=WIRED_LATENCY_S) for s in LATEX_SERVERS]
    for c in clients:
        links += [LinkSpec(a=c, b=peer, medium="wireless")
                  for peer in LATEX_SERVERS + ("fs",)]
    timeline = []
    at, turn = FIRST_OUTAGE_S, 0
    while at < duration_s:
        timeline.append(TimelineEventSpec(
            at_s=at, kind="server_down", target=LATEX_SERVERS[turn % 2],
            until_s=at + OUTAGE_S))
        at, turn = at + OUTAGE_EVERY_S, turn + 1
    return ScenarioSpec(
        name="bench-latex-crowd",
        description="16 Latex clients, one wireless medium, two servers "
                    "taking turns in outages",
        duration_s=duration_s,
        seed=seed,
        hosts=tuple(hosts),
        media=(MediumSpec(name="wireless", bandwidth_bps=WIRELESS_BPS,
                          latency_s=WIRELESS_LATENCY_S),),
        links=tuple(links),
        apps=(AppSpec(kind="latex", options={
            "documents": ["small", "large"], "warm_outputs": True}),),
        clients=tuple(
            ClientSpec(
                host=c, app="latex", servers=LATEX_SERVERS,
                arrivals=ArrivalSpec(kind="poisson", rate_ops_per_s=0.02,
                                     n_ops=n_ops),
                think=ThinkSpec(kind="exponential", mean_s=2.0),
                training_ops=8,
            )
            for c in clients
        ),
        timeline=tuple(timeline),
    )


def scenario_spec(workload: str, seed: int, small: bool = False) -> ScenarioSpec:
    """The validated spec of a scenario workload.

    ``small`` shrinks the run (fewer operations, a shorter day) for the
    harness's own tests; the world itself is unchanged.
    """
    if workload == "metro":
        spec = metro(seed, n_ops=3, duration_s=60.0) if small else metro(seed)
    elif workload == "latex-crowd":
        spec = (latex_crowd(seed, n_ops=3, duration_s=400.0) if small
                else latex_crowd(seed))
    else:
        raise ValueError(f"not a scenario workload: {workload!r}")
    return spec.validate()


def golden_path(root: pathlib.Path, figure: str) -> pathlib.Path:
    return root / "benchmarks" / "results" / f"{FIGURE_GOLDENS[figure]}.txt"
