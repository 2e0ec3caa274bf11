"""No job is left in service when a run drains.

Every in-flight job lives in one table, its resource's
(:attr:`~repro.sim.resources.FairShareResource.jobs`), tagged with its
owner.  After a canned scenario's smoke run has drained, every CPU's and
every link's table must be empty: a job still in service then runs for
an operation that has ended, on a medium or a processor nobody measures
any more.  Every CPU's ledger of finished cycles must hold only owners
that outlive operations — background load and the Spectra daemon —
since each operation's reader releases its owner at its last read.
"""

import pytest

from repro.scenarios import SCENARIOS, canned_spec, runner

#: the owner ``SpectraClient.register_fidelity`` charges: the daemon's
#: own, not an operation's
DAEMON_OWNER = "spectra"


def drained_worlds(monkeypatch, name):
    """Every world a smoke run of *name* compiles (a chaos scenario also
    runs a fault-free baseline), after the run."""
    worlds = []
    compile_scenario = runner.compile_scenario

    def capture(*args, **kwargs):
        worlds.append(compile_scenario(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(runner, "compile_scenario", capture)
    report = runner.run_scenario(canned_spec(name), profile="smoke")
    assert report.ops
    return worlds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_live_job_at_drain(name, monkeypatch):
    worlds = drained_worlds(monkeypatch, name)
    assert worlds
    for world in worlds:
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
