"""The canned scenario library.

Four worlds the paper's evaluation gestures at but never builds, each a
pure :class:`~repro.scenarios.spec.ScenarioSpec` the CLI can list,
validate, and run:

``walk-in-office``
    The paper's introduction: a handheld enters a well-conditioned room.
    Connectivity starts throttled (still in the corridor), then opens
    up; the speech client should shift from local execution to
    offloading as the WLAN appears.

``flash-crowd``
    Several mobile clients share one wireless LAN and one compute
    server; a burst of simultaneous Latex work arrives after a quiet
    period — the contention experiment's world under bursty, seeded
    traffic instead of a hand-staggered loop.

``degraded-commute``
    One client rides a connection that decays in steps and then
    recovers (wireless coverage along a commute), with a latency spike
    in the worst stretch.  Spectra should degrade to local execution
    mid-commute and return to offloading afterwards.

``server-churn-day``
    Two compute servers take turns crashing and restarting while a
    client issues steady traffic — the failover machinery's daily
    grind, measurable end to end.

``metro``
    The scale test: hundreds of clients spread over a multi-cell
    wireless topology (one shared medium and one compute server per
    cell, a wired backhaul to the file server).  Exists to prove the
    virtual-time fair-share scheduler and kernel hot path hold up at
    population scale — and, like every canned world, it must run
    byte-deterministically.

Specs are built by zero-argument factories so every caller gets a fresh
object, and registered in :data:`SCENARIOS` for the CLI.

The paper's own two hardware set-ups are spec factories here too, but
not canned scenarios — the figure experiments compile them and drive
their own training and measurement loops:

:func:`itsy_testbed` (§4.1)
    A Compaq Itsy v2.2 client and an IBM T20 server on one serial wire,
    which the Coda file server sits behind too (the Itsy has no PCMCIA
    slot), so file and RPC traffic contend — and the file server stays
    reachable when the Spectra daemon on the T20 goes down.

:func:`thinkpad_testbed` (§4.2–4.3)
    An IBM 560X client on a shared 2 Mb/s wireless LAN, compute servers
    A (400 MHz PII) and B (933 MHz PIII), and the file server on a
    wired backbone.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .spec import (
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

#: Serial line between the Itsy and the T20: 115.2 kb/s, 5 ms latency.
SERIAL_BANDWIDTH_BPS = 14_400.0
SERIAL_LATENCY_S = 0.005
#: The shared 2 Mb/s wireless LAN of the ThinkPad testbed.
WIRELESS_BANDWIDTH_BPS = 250_000.0
WIRELESS_LATENCY_S = 0.002
#: Wired backbone between servers and the file server.
WIRED_BANDWIDTH_BPS = 500_000.0
WIRED_LATENCY_S = 0.001
OFFICE_WLAN_BANDWIDTH_BPS = 1_400_000.0
OFFICE_WLAN_LATENCY_S = 0.003


def _wired(a: str, b: str) -> LinkSpec:
    return LinkSpec(a=a, b=b, bandwidth_bps=WIRED_BANDWIDTH_BPS,
                    latency_s=WIRED_LATENCY_S)


def walk_in_office() -> ScenarioSpec:
    hosts = ("itsy", "office-server", "directory")
    return ScenarioSpec(
        name="walk-in-office",
        description=(
            "A handheld walks into a smart office: throttled corridor "
            "connectivity for the first 10 s, then the full WLAN; speech "
            "traffic should migrate from local execution to the "
            "discovered office server."
        ),
        duration_s=120.0,
        seed=17,
        hosts=(
            HostSpec(name="itsy", profile="itsy-v2.2", role="client",
                     battery_powered=True),
            HostSpec(name="office-server", profile="server-b"),
            HostSpec(name="directory", profile="ibm-t20"),
        ),
        media=(
            MediumSpec(name="office-wlan",
                       bandwidth_bps=OFFICE_WLAN_BANDWIDTH_BPS,
                       latency_s=OFFICE_WLAN_LATENCY_S),
        ),
        links=tuple(
            LinkSpec(a=a, b=b, medium="office-wlan")
            for a, b in _full_mesh(list(hosts) + ["fs"])
        ),
        apps=(
            AppSpec(kind="speech", hosts=("itsy", "office-server")),
        ),
        clients=(
            ClientSpec(
                host="itsy", app="speech", servers=("office-server",),
                arrivals=ArrivalSpec(kind="poisson", rate_ops_per_s=0.12,
                                     n_ops=12),
                think=ThinkSpec(kind="constant", mean_s=1.0),
                training_ops=6,
            ),
        ),
        timeline=(
            TimelineEventSpec(at_s=0.0, kind="bandwidth",
                              target=("itsy", "office-server"),
                              value=0.15, until_s=10.0),
            TimelineEventSpec(at_s=0.0, kind="bandwidth",
                              target=("itsy", "fs"),
                              value=0.15, until_s=10.0),
        ),
    )


def flash_crowd() -> ScenarioSpec:
    n_clients = 4
    client_names = [f"client-{i}" for i in range(n_clients)]
    links: List[LinkSpec] = [
        _wired("server", "fs"),
    ]
    for name in client_names:
        links.append(LinkSpec(a=name, b="server", medium="wireless"))
        links.append(LinkSpec(a=name, b="fs", medium="wireless"))
    return ScenarioSpec(
        name="flash-crowd",
        description=(
            "Four mobile clients on one wireless LAN hit one compute "
            "server with a burst of Latex work after a quiet spell; "
            "per-client Spectra should spill to local execution as the "
            "server and the medium saturate."
        ),
        duration_s=90.0,
        seed=29,
        hosts=tuple(
            [HostSpec(name="server", profile="server-b")]
            + [HostSpec(name=name, profile="ibm-560x", role="client",
                        battery_powered=True)
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
            ClientSpec(
                host=name, app="latex", servers=("server",),
                arrivals=ArrivalSpec(kind="onoff", rate_ops_per_s=0.5,
                                     on_s=15.0, off_s=30.0, n_ops=5),
                training_ops=8,
            )
            for name in client_names
        ),
    )


def degraded_commute() -> ScenarioSpec:
    return ScenarioSpec(
        name="degraded-commute",
        description=(
            "One speech client's wireless link decays in steps (full -> "
            "40% -> 8% with a latency spike) and then recovers — the "
            "walk-to-the-train-and-back bandwidth profile; Spectra "
            "should fall back to local execution in the trough."
        ),
        duration_s=150.0,
        seed=41,
        hosts=(
            HostSpec(name="560x", profile="ibm-560x", role="client",
                     battery_powered=True, battery_driver="acpi"),
            HostSpec(name="server-b", profile="server-b"),
        ),
        media=(
            MediumSpec(name="wireless", bandwidth_bps=WIRELESS_BANDWIDTH_BPS,
                       latency_s=WIRELESS_LATENCY_S),
        ),
        links=(
            LinkSpec(a="560x", b="server-b", medium="wireless"),
            LinkSpec(a="560x", b="fs", medium="wireless"),
            _wired("server-b", "fs"),
        ),
        apps=(
            AppSpec(kind="speech",
                    options={"mean_length_s": 1.5, "spread_s": 0.5}),
        ),
        clients=(
            ClientSpec(
                host="560x", app="speech", servers=("server-b",),
                arrivals=ArrivalSpec(kind="fixed", rate_ops_per_s=0.125,
                                     n_ops=14),
                training_ops=6,
            ),
        ),
        timeline=(
            TimelineEventSpec(at_s=30.0, kind="bandwidth",
                              target=("560x", "server-b"),
                              value=0.4, until_s=110.0),
            TimelineEventSpec(at_s=60.0, kind="bandwidth",
                              target=("560x", "fs"),
                              value=0.08, until_s=95.0),
            TimelineEventSpec(at_s=60.0, kind="latency",
                              target=("560x", "server-b"),
                              value=0.25, until_s=95.0),
        ),
    )


def server_churn_day() -> ScenarioSpec:
    return ScenarioSpec(
        name="server-churn-day",
        description=(
            "Two compute servers alternate crash/restart cycles under "
            "steady Poisson Latex traffic; operations must keep "
            "completing via failover to the surviving server or local "
            "execution."
        ),
        duration_s=180.0,
        seed=53,
        hosts=(
            HostSpec(name="560x", profile="ibm-560x", role="client",
                     battery_powered=True, battery_driver="acpi"),
            HostSpec(name="server-a", profile="server-a"),
            HostSpec(name="server-b", profile="server-b"),
        ),
        media=(
            MediumSpec(name="wireless", bandwidth_bps=WIRELESS_BANDWIDTH_BPS,
                       latency_s=WIRELESS_LATENCY_S),
        ),
        links=(
            LinkSpec(a="560x", b="server-a", medium="wireless"),
            LinkSpec(a="560x", b="server-b", medium="wireless"),
            LinkSpec(a="560x", b="fs", medium="wireless"),
            _wired("server-a", "fs"),
            _wired("server-b", "fs"),
            _wired("server-a", "server-b"),
        ),
        apps=(
            AppSpec(kind="latex",
                    options={"documents": ["small"], "warm_outputs": True}),
        ),
        clients=(
            ClientSpec(
                host="560x", app="latex",
                servers=("server-a", "server-b"),
                arrivals=ArrivalSpec(kind="poisson", rate_ops_per_s=0.1,
                                     n_ops=12),
                think=ThinkSpec(kind="exponential", mean_s=2.0),
                training_ops=9,
            ),
        ),
        timeline=(
            TimelineEventSpec(at_s=20.0, kind="server_down",
                              target="server-b", until_s=60.0),
            TimelineEventSpec(at_s=80.0, kind="server_down",
                              target="server-a", until_s=120.0),
            TimelineEventSpec(at_s=140.0, kind="server_down",
                              target="server-b", until_s=165.0),
        ),
    )


#: metro topology: cells × clients-per-cell traffic sources
METRO_CELLS = 8
METRO_CLIENTS_PER_CELL = 25


def metro() -> ScenarioSpec:
    """Population-scale world: hundreds of clients over a cellular grid.

    :data:`METRO_CELLS` cells, each with its own shared wireless medium,
    one compute server, and :data:`METRO_CLIENTS_PER_CELL` clients; every
    cell server reaches the file server over a dedicated wired backhaul,
    while clients share their cell's medium for both compute and Coda
    traffic.  Null-operation traffic keeps the per-op application cost
    at the paper's §4.4 floor, so what this world measures is the
    simulation core itself: hundreds of concurrent jobs on shared media
    and timeshared CPUs — exactly the contention pattern the
    virtual-time fair-share scheduler was built for.
    """
    hosts: List[HostSpec] = []
    media: List[MediumSpec] = []
    links: List[LinkSpec] = []
    clients: List[ClientSpec] = []
    for cell in range(METRO_CELLS):
        server = f"cell{cell}-server"
        medium = f"cell-{cell}"
        hosts.append(HostSpec(name=server, profile="server-b"))
        media.append(MediumSpec(name=medium,
                                bandwidth_bps=WIRELESS_BANDWIDTH_BPS,
                                latency_s=WIRELESS_LATENCY_S))
        links.append(_wired(server, "fs"))
        for i in range(METRO_CLIENTS_PER_CELL):
            name = f"m{cell}-{i}"
            hosts.append(HostSpec(name=name, profile="ibm-560x",
                                  role="client"))
            links.append(LinkSpec(a=name, b=server, medium=medium))
            links.append(LinkSpec(a=name, b="fs", medium=medium))
            clients.append(ClientSpec(
                host=name, app="null", servers=(server,),
                arrivals=ArrivalSpec(kind="poisson", rate_ops_per_s=0.05,
                                     n_ops=2),
                training_ops=1,
            ))
    return ScenarioSpec(
        name="metro",
        description=(
            f"{METRO_CELLS * METRO_CLIENTS_PER_CELL} clients across "
            f"{METRO_CELLS} wireless cells (one medium + one compute "
            "server each, wired backhaul to the file server) issuing "
            "null-operation traffic — the population-scale stress test "
            "for the virtual-time scheduler and the kernel hot path."
        ),
        duration_s=60.0,
        seed=101,
        hosts=tuple(hosts),
        media=tuple(media),
        links=tuple(links),
        apps=(AppSpec(kind="null"),),
        clients=tuple(clients),
    )


def itsy_testbed() -> ScenarioSpec:
    """The §4.1 speech world: Itsy client, T20 server, one serial wire."""
    return ScenarioSpec(
        name="itsy-testbed",
        description=(
            "The paper's speech testbed: an Itsy client and a T20 server "
            "sharing one serial wire with the file server."
        ),
        duration_s=60.0,
        hosts=(
            HostSpec(name="itsy", profile="itsy-v2.2", role="client",
                     battery_powered=True, battery_driver="smart"),
            HostSpec(name="t20", profile="ibm-t20"),
        ),
        media=(
            MediumSpec(name="serial", bandwidth_bps=SERIAL_BANDWIDTH_BPS,
                       latency_s=SERIAL_LATENCY_S),
        ),
        links=(
            LinkSpec(a="itsy", b="t20", medium="serial"),
            LinkSpec(a="itsy", b="fs", medium="serial"),
            _wired("t20", "fs"),
        ),
        apps=(AppSpec(kind="speech"),),
        clients=(ClientSpec(host="itsy", app="speech", servers=("t20",)),),
    )


def thinkpad_testbed(app: AppSpec, twin: bool = False) -> ScenarioSpec:
    """The §4.2–4.3 world running *app*: 560X client, servers A and B.

    ``twin=True`` gives server A server B's hardware (the parallel
    extension's two comparable servers).
    """
    return ScenarioSpec(
        name=f"thinkpad-testbed-{app.kind}",
        description=(
            "The paper's Latex/Pangloss testbed: a 560X client on a "
            "2 Mb/s wireless LAN with servers A and B and a wired "
            "backbone to the file server."
        ),
        duration_s=60.0,
        hosts=(
            HostSpec(name="560x", profile="ibm-560x", role="client",
                     battery_powered=True, battery_driver="acpi"),
            HostSpec(name="server-a",
                     profile="server-b" if twin else "server-a"),
            HostSpec(name="server-b", profile="server-b"),
        ),
        media=(
            MediumSpec(name="wireless", bandwidth_bps=WIRELESS_BANDWIDTH_BPS,
                       latency_s=WIRELESS_LATENCY_S),
        ),
        links=(
            LinkSpec(a="560x", b="server-a", medium="wireless"),
            LinkSpec(a="560x", b="server-b", medium="wireless"),
            LinkSpec(a="560x", b="fs", medium="wireless"),
            _wired("server-a", "fs"),
            _wired("server-b", "fs"),
            _wired("server-a", "server-b"),
        ),
        apps=(app,),
        clients=(ClientSpec(host="560x", app=app.kind,
                            servers=("server-a", "server-b")),),
    )


def _full_mesh(names: List[str]) -> List[tuple]:
    return [(names[i], names[j])
            for i in range(len(names)) for j in range(i + 1, len(names))]


#: Name -> spec factory; the surface ``repro scenario`` exposes.
SCENARIOS: Dict[str, Callable[[], ScenarioSpec]] = {
    "walk-in-office": walk_in_office,
    "flash-crowd": flash_crowd,
    "degraded-commute": degraded_commute,
    "server-churn-day": server_churn_day,
    "metro": metro,
}


def canned_spec(name: str) -> ScenarioSpec:
    """A fresh, validated spec for canned scenario *name*."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return factory().validate()
