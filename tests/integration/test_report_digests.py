"""Pinned scenario report digests.

Runs the benchmark's two scenario workloads (``bench/workloads.py``) in
their ``small=True`` shape at seed 1 and compares the sha256 of each
report's JSON with a pinned value.  Any change to a decision, a
simulated time or energy, or a counter moves a digest, so a speed-up
that must keep every output passes only if these still match.  A change
that is meant to move one must say why and re-pin it here.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from repro.scenarios import run_scenario, runner

WORKLOADS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"

#: workload -> sha256 of ``run_scenario(spec).to_json()``
DIGESTS = {
    "metro": "70d3d9c0edc8943ddd2627bcaa102b53c977f15346241e015914629a26622d36",
    "latex-crowd":
        "c515227ecf738cc0a3e1052c234b57c7ed1916481124d3dedec07b65642add8d",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_small_seed_1_report_digest(workload):
    spec = _workloads().scenario_spec(workload, seed=1, small=True)
    report = run_scenario(spec)
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == DIGESTS[workload]


def test_small_latex_crowd_reports_its_barrier_time(monkeypatch):
    """The report's clock stops when the measured phase does.

    The phase ends at its barrier, when the last client's process
    returns.  The drain after it still runs, so the fault journal is
    complete, and it runs the clock on to the last queued timer: here
    an RPC deadline that its call outlived.  Neither ``sim_time_s`` nor
    ``energy_j`` may count that idle tail.
    """
    ends, worlds = [], []
    drive, compile_scenario = runner._drive, runner.compile_scenario

    def timed(world, *args, **kwargs):
        yield from drive(world, *args, **kwargs)
        ends.append(world.sim.now)

    def capture(*args, **kwargs):
        worlds.append(compile_scenario(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(runner, "_drive", timed)
    monkeypatch.setattr(runner, "compile_scenario", capture)
    report = run_scenario(
        _workloads().scenario_spec("latex-crowd", seed=1, small=True))
    (world,) = worlds
    assert report.sim_time_s == max(ends)
    assert world.sim.now > report.sim_time_s
