"""No CPU job outlives its owner.

:meth:`~repro.hosts.cpu.CPU.release` drops an owner's ledger entry once
its last reader is done.  A job of that owner still in flight afterwards
runs for nobody: no one will read its cycles, and it takes fair share
from live work.  A dispatch that an RPC timeout abandons mid-service
used to leave its service's job running like that (15 jobs, 2.56e11
cycles, in the seed-1 ``small=True`` Latex crowd of ``bench/workloads.py``,
whose servers take turns in outages).  The check wraps ``CPU._retire``
and counts every job that retires after its owner was released.
"""

import importlib.util
import pathlib

from repro.hosts.cpu import CPU
from repro.scenarios import run_scenario

WORKLOADS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"


def test_no_job_retires_after_its_owner_is_released(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    orphans = []
    retire = CPU._retire

    def counting_retire(cpu, job):
        if job.owner not in cpu._finished_cycles:
            orphans.append((job.owner, job.amount - job.remaining))
        retire(cpu, job)

    monkeypatch.setattr(CPU, "_retire", counting_retire)
    report = run_scenario(
        workloads.scenario_spec("latex-crowd", seed=1, small=True))
    assert report.ops
    assert orphans == []
