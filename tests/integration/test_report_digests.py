"""Pinned scenario report digests.

Runs the benchmark's two scenario workloads (``bench/workloads.py``) in
their ``small=True`` shape at seed 1 and compares the sha256 of each
report's JSON with a pinned value.  Any change to a decision, a
simulated time or energy, or a counter moves a digest, so a speed-up
that must keep every output passes only if these still match.  A change
that is meant to move one must say why and re-pin it here.

The operation records of those two runs and of the ``chaos-speech``
smoke run (and its fault-free baseline) are pinned field by field too,
floats by ``repr``: the report's JSON rounds, the records do not.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from repro.scenarios import OpRecord, canned_spec, run_scenario, runner

WORKLOADS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"

#: workload -> sha256 of ``run_scenario(spec).to_json()``
DIGESTS = {
    "metro": "70d3d9c0edc8943ddd2627bcaa102b53c977f15346241e015914629a26622d36",
    "latex-crowd":
        "c515227ecf738cc0a3e1052c234b57c7ed1916481124d3dedec07b65642add8d",
}


#: run -> sha256 of every ``OpRecord`` field, in ``report.ops`` order
RECORD_DIGESTS = {
    "metro": "e94315efea7755bce5c4d6aa308815ff4075e7012f3d02237612a1c910327a5f",
    "latex-crowd":
        "a6a162ac67e502fad21505fb99a7b04fb5a54f4743b180d772f3749a348185cf",
    "chaos-speech":
        "d27cdff3d0c78922b3c60edc115a12916c130248272e0662f32bec7443e8d4a8",
    "chaos-speech baseline":
        "1b977d9ba905c5c6fd9f0b62e9d360eeeaa14ac0583bc7bf60596c1c0245e6b4",
}


def record_digest(ops) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(repr((op.client, op.index, op.issued_at_s, op.elapsed_s,
                            op.plan, op.server, op.fidelity, op.failed_over,
                            op.completed, op.error)).encode("utf-8") + b"\n")
    return digest.hexdigest()


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


@pytest.fixture(scope="module")
def small_metro():
    return run_scenario(_workloads().scenario_spec("metro", seed=1,
                                                   small=True))


def test_small_run_records_digests(small_metro):
    latex = run_scenario(
        _workloads().scenario_spec("latex-crowd", seed=1, small=True))
    chaos = run_scenario(canned_spec("chaos-speech"), profile="smoke")
    runs = {"metro": small_metro.ops, "latex-crowd": latex.ops,
            "chaos-speech": chaos.ops,
            "chaos-speech baseline": chaos.baseline.ops}
    assert {name: record_digest(ops) for name, ops in runs.items()} \
        == RECORD_DIGESTS


def test_ops_is_a_read_only_sequence_of_records(small_metro):
    ops = small_metro.ops
    records = list(ops)
    assert len(ops) == len(records) == 463
    assert all(type(op) is OpRecord for op in records)
    assert [(op.client, op.index) for op in records] == sorted(
        (op.client, op.index) for op in records)
    assert ops[0] == records[0] and ops[-1] == records[-1]
    assert ops[-len(ops)] == records[0]
    assert ops[5] == records[5] and ops[-7] == records[-7]
    assert ops[3:9] == records[3:9]
    assert ops[::-50] == records[::-50]
    assert ops[400:10_000] == records[400:]
    assert ops[10:3] == []
    for index in (len(ops), -len(ops) - 1):
        with pytest.raises(IndexError):
            ops[index]
    assert records[2] in ops
    assert ops.index(records[2]) == 2
    assert list(reversed(ops)) == records[::-1]
    with pytest.raises(TypeError):
        ops[0] = records[1]
