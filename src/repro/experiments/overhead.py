"""The overhead experiment — Figure 10 (§4.4).

"We measured Spectra's overhead by performing a null operation that
returns immediately after being invoked."  Three configurations: no
remote servers, one server, five servers.  Reported rows mirror the
paper's table:

====================  ======================================================
register_fidelity     duration of the registration call
begin_fidelity_op     total decision time, broken into file-cache
                      prediction, choosing the alternative, and other
                      activity (snapshot + fixed costs)
do_local_op           the local null RPC round trip
end_fidelity_op       bookkeeping and model updates
total                 begin + do_local + end (the null operation's cost)
====================  ======================================================

The client is a 233 MHz machine (the 560X profile), matching the paper's
overhead-measurement platform; a second sweep with a loaded client shows
overhead dilating with CPU contention, which falls out of charging
overhead in cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..apps import NullApplication
from ..scenarios import compile_scenario
from ..scenarios.library import WIRELESS_BANDWIDTH_BPS, WIRELESS_LATENCY_S
from ..scenarios.spec import (
    AppSpec,
    ClientSpec,
    HostSpec,
    LinkSpec,
    MediumSpec,
    ScenarioSpec,
)


@dataclass
class OverheadRow:
    """Figure-10 timings for one server-count configuration, seconds."""

    n_servers: int
    register: float
    begin_total: float
    file_cache_prediction: float
    choosing: float
    begin_other: float
    do_local_op: float
    end: float

    @property
    def total(self) -> float:
        return self.begin_total + self.do_local_op + self.end

    def as_millis(self) -> Dict[str, float]:
        return {
            "register_fidelity": self.register * 1e3,
            "begin_fidelity_op": self.begin_total * 1e3,
            "  file cache prediction": self.file_cache_prediction * 1e3,
            "  choosing alternative": self.choosing * 1e3,
            "  other activity": self.begin_other * 1e3,
            "do_local_op": self.do_local_op * 1e3,
            "end_fidelity_op": self.end * 1e3,
            "total": self.total * 1e3,
        }


def _null_spec(n_servers: int) -> ScenarioSpec:
    """A 560X-class client plus *n_servers* identical compute servers,
    all on one wireless medium with the file server."""
    servers = tuple(f"server-{i}" for i in range(n_servers))
    return ScenarioSpec(
        name=f"overhead-{n_servers}",
        description="Figure 10's null-operation world",
        duration_s=60.0,
        hosts=((HostSpec(name="client", profile="ibm-560x", role="client"),)
               + tuple(HostSpec(name=name, profile="server-b")
                       for name in servers)),
        media=(MediumSpec(name="wireless",
                          bandwidth_bps=WIRELESS_BANDWIDTH_BPS,
                          latency_s=WIRELESS_LATENCY_S),),
        links=tuple(LinkSpec(a="client", b=peer, medium="wireless")
                    for peer in ("fs",) + servers),
        apps=(AppSpec(kind="null"),),
        clients=(ClientSpec(host="client", app="null", servers=servers),),
    )


def measure_overhead(n_servers: int, cached_files: int = 0,
                     client_load: int = 0,
                     training_ops: int = 4) -> OverheadRow:
    """Run null operations and time each API phase (Figure 10)."""
    world = compile_scenario(_null_spec(n_servers),
                             connect_clients=bool(n_servers),
                             register_apps=False)
    sim = world.sim
    node = world.nodes["client"]
    client = node.client
    # Optional cache population: file-cache prediction cost scales with
    # the number of cached entries (the paper's 359.6 ms full-cache case).
    for i in range(cached_files):
        path = f"/junk/file{i}"
        world.fileserver.create_file(path, 1024)
        node.coda.warm(path)
    if client_load:
        node.host.start_background_load(client_load)
        sim.advance(10.0)
    app = NullApplication(client, remote=n_servers > 0)

    t0 = sim.now
    sim.run_process(app.register())
    register_s = sim.now - t0

    # A few warm-up operations: exploration bins fill, so the measured
    # operation exercises the solver path like a steady-state null op.
    for _ in range(training_ops):
        sim.run_process(app.invoke())

    t0 = sim.now

    def probe():
        handle = yield from client.begin_fidelity_op(app.spec.name)
        t_begin_done = sim.now
        if handle.plan_name == "remote":
            yield from client.do_remote_op(handle, "null", "null")
        else:
            yield from client.do_local_op(handle, "null", "null")
        t_op_done = sim.now
        yield from client.end_fidelity_op(handle)
        return handle, t_begin_done, t_op_done

    handle, t_begin_done, t_op_done = sim.run_process(probe())
    end_s = sim.now - t_op_done
    begin_s = t_begin_done - t0
    do_op_s = t_op_done - t_begin_done

    cache_pred = handle.timings.get("file_cache_prediction", 0.0)
    choosing = handle.timings.get("choosing", 0.0)
    other = max(begin_s - cache_pred - choosing, 0.0)

    return OverheadRow(
        n_servers=n_servers,
        register=register_s,
        begin_total=begin_s,
        file_cache_prediction=cache_pred,
        choosing=choosing,
        begin_other=other,
        do_local_op=do_op_s,
        end=end_s,
    )


def run_overhead_experiment(server_counts=(0, 1, 5)) -> List[OverheadRow]:
    """The Figure-10 table: one row set per server count."""
    return [measure_overhead(n) for n in server_counts]


def full_cache_prediction_ms(entries: int = 2000) -> float:
    """The paper's pathological case: file-cache prediction with a full
    Coda cache (§4.4 reports 359.6 ms).  Returns milliseconds."""
    row = measure_overhead(n_servers=0, cached_files=entries)
    return row.file_cache_prediction * 1e3
