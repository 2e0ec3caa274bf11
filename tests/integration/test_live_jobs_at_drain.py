"""No job is left in service, and no record out of reach, when a run drains.

Every in-flight job lives in one table, its resource's
(:attr:`~repro.sim.resources.FairShareResource.jobs`), tagged with its
owner.  After a canned scenario's smoke run has drained, every CPU's and
every link's table must be empty: a job still in service then runs for
an operation that has ended, on a medium or a processor nobody measures
any more.  Every CPU's ledger of finished cycles must hold only owners
that outlive operations — background load and the Spectra daemon —
since each operation's reader releases its owner at its last read.

The network log's horizon is the network monitors' window, and each of
its indexes holds exactly the records appended under it that finished
within the horizon of its newest one: none that a monitor can no longer
read, and none missing that it can.
"""

import inspect
from collections import defaultdict

import pytest

from repro.monitors.network import NetworkMonitor
from repro.network import TransferLog
from repro.scenarios import SCENARIOS, canned_spec, runner

#: the owner ``SpectraClient.register_fidelity`` charges: the daemon's
#: own, not an operation's
DAEMON_OWNER = "spectra"

#: the window every client's network monitor reads
WINDOW_S = inspect.signature(NetworkMonitor).parameters["window_s"].default


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def drained(request):
    """Every world a smoke run of a canned scenario compiles (a chaos
    scenario also runs a fault-free baseline), after the run, and the
    records appended to each world's log, by log."""
    worlds = []
    appended = defaultdict(list)
    compile_scenario = runner.compile_scenario
    append = TransferLog.append

    def capture(*args, **kwargs):
        worlds.append(compile_scenario(*args, **kwargs))
        return worlds[-1]

    def record(log, transfer):
        appended[id(log)].append(transfer)
        append(log, transfer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "compile_scenario", capture)
        patch.setattr(TransferLog, "append", record)
        report = runner.run_scenario(canned_spec(request.param),
                                     profile="smoke")
    assert report.ops
    assert worlds
    return [(world, appended[id(world.network.log)]) for world in worlds]


def test_no_live_job_at_drain(drained):
    for world, _ in drained:
        links = list(world.network._links.values())
        assert links
        resources = ([medium._resource for medium in world.media.values()]
                     + [link._resource for link in links])
        for resource in resources:
            assert list(resource.jobs) == [], resource.name
        for node in world.nodes.values():
            cpu = node.host.cpu
            assert list(cpu._resource.jobs) == [], cpu.name
            assert (set(cpu._finished_cycles)
                    <= cpu._external_owners | {DAEMON_OWNER}), cpu.name


def test_log_holds_only_the_monitors_window(drained):
    for world, records in drained:
        log = world.network.log
        assert log._horizon == WINDOW_S
        assert log.transfers == len(records) > 0
        under = defaultdict(list)
        for transfer in records:
            under["pair", frozenset((transfer.src, transfer.dst))].append(
                transfer)
            for host in {transfer.src, transfer.dst}:
                under["host", host].append(transfer)
        indexes = ([("pair", frozenset(key), held)
                    for key, (held, _) in log._by_pair.items()]
                   + [("host", key, held)
                      for key, (held, _) in log._by_host.items()])
        assert len(indexes) == len(under)
        for kind, key, held in indexes:
            appended = under[kind, key]
            cutoff = appended[-1].finished_at - WINDOW_S
            want = [r for r in appended if r.finished_at >= cutoff]
            assert len(held) == len(want), (kind, key)
            assert all(a is b for a, b in zip(held, want)), (kind, key)
