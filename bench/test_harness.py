"""Tests of the benchmark harness itself: ``pytest bench -q``.

Not part of the tier-1 suite; they check the statistics, the span
arithmetic, the wrappers, the workload builders and a shrunken pass of
every workload through ``run.py``.
"""

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.scenarios import derive_seed, generate_arrivals  # noqa: E402


# -- statistics ----------------------------------------------------------------------


def test_median_and_quartiles():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0)


def test_nearest_rank_percentile():
    ordered = [float(i) for i in range(1, 101)]
    assert stats.percentile(ordered, 50.0) == 50.0
    assert stats.percentile(ordered, 99.0) == 99.0
    assert stats.percentile(ordered, 100.0) == 100.0
    assert stats.percentile([5.0], 99.0) == 5.0
    assert stats.samples_beyond(100, 99.0) == 1
    assert stats.samples_beyond(1000, 99.0) == 10


@pytest.mark.parametrize("n, expected_q", [
    (10_000, 99.9),  # 10 samples beyond p99.9
    (9_999, 99.0),   # only 9 beyond p99.9
    (1_000, 99.0),   # exactly 10 beyond p99
    (999, 95.0),     # 9 beyond p99
    (200, 95.0),
    (40, 75.0),
    (20, None),      # p75 leaves only 5 beyond
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_q):
    ordered = [float(i) for i in range(n)]
    tail = stats.tail_percentile(ordered)
    if expected_q is None:
        assert tail is None
        return
    q, value, beyond = tail
    assert q == expected_q
    assert beyond >= 10
    assert value == stats.percentile(ordered, q)
    assert sum(1 for v in ordered if v > value) == beyond


# -- spans and self time -------------------------------------------------------------


def synthetic_log(times):
    clock = iter(times)
    return tracing.SpanLog(clock=lambda: next(clock))


def kind(key):
    return tracing.SPAN_KINDS.index(key)


def test_self_time_subtracts_nested_children():
    # origin 0; A [0, 10] holds B [1, 3] and C [4, 8]; C holds D [5, 6]
    log = synthetic_log([0, 0, 1, 3, 4, 5, 6, 8, 10])
    a = log.open(kind(tracing.SIM_RUN))
    b = log.open(kind(tracing.SNAPSHOT))
    log.close(b)
    c = log.open(kind(tracing.SOLVE))
    d = log.open(kind(tracing.PREDICT))
    log.close(d)
    log.close(c)
    log.close(a)
    assert list(log.parent) == [-1, a, a, c]
    assert log.durations() == [10, 2, 4, 1]
    assert log.self_times() == [4, 2, 3, 1]
    totals = log.totals()
    assert totals[tracing.SIM_RUN] == (1, 10, 4)
    assert totals[tracing.SOLVE] == (1, 4, 3)
    assert totals[tracing.LOG_SCAN] == (0, 0.0, 0.0)
    assert log.root_seconds() == 10
    # the predict inside the solve is already inside the decision time
    assert log.outermost_seconds(tracing.DECISION) == 2 + 4
    assert log.children_of(tracing.PREDICT, tracing.SOLVE) == 1
    assert log.children_of(tracing.PREDICT, tracing.SNAPSHOT) == 0


def test_spans_write_as_jsonl(tmp_path):
    log = synthetic_log([100.0, 100.5, 101.0])
    log.close(log.open(kind(tracing.LOG_SCAN)))
    path = tmp_path / "spans.jsonl"
    with open(path, "w") as fh:
        assert log.write_jsonl(fh) == 1
    (record,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert record == {"id": 0, "name": "log_scan", "layer": "network",
                      "start": 0.5, "end": 1.0, "parent": None, "run": "run"}


# -- wrappers --------------------------------------------------------------------------


def test_span_wrapper_keeps_results_and_exceptions():
    log = tracing.SpanLog()

    def double(x, *, plus=0):
        """docstring"""
        return 2 * x + plus

    def fail():
        raise KeyError("boom")

    wrapped = tracing.span_wrapper(log, double, tracing.PREDICT)
    assert wrapped(3, plus=1) == 7
    assert wrapped.__name__ == "double" and wrapped.__doc__ == "docstring"
    with pytest.raises(KeyError, match="boom"):
        tracing.span_wrapper(log, fail, tracing.SOLVE)()
    assert log.span_count == 2
    assert all(end >= start for start, end in zip(log.start, log.end))
    # the failing span closed, so the next span is a root again
    wrapped(1)
    assert log.parent[2] == -1


def test_count_wrapper_counts_calls():
    log = tracing.SpanLog()
    wrapped = tracing.count_wrapper(log, lambda x: x + 1, "calls")
    assert [wrapped(i) for i in range(3)] == [1, 2, 3]
    assert log.counts["calls"] == 3


class FakeSim:
    now = 0.0


def worker(steps, result="done"):
    """A process: yields its steps, returns *result*."""
    for step in steps:
        received = yield step
        if received is not None:
            FakeSim.now += received
    return result


def test_generator_wrapper_keeps_return_value_and_sim_time():
    log = tracing.SpanLog()
    log.sim = FakeSim
    FakeSim.now = 0.0
    finished = []
    wrapped = tracing.generator_wrapper(
        log, worker, "w", finish=lambda counts, r: finished.append(r))
    gen = wrapped(["a", "b"], result=42)
    assert gen.__name__ == "worker"
    assert next(gen) == "a"
    assert gen.send(2.0) == "b"
    with pytest.raises(StopIteration) as stop:
        gen.send(3.0)
    assert stop.value.value == 42
    assert finished == [42]
    assert log.counts["w.calls"] == 1
    assert log.counts["w.sim_s"] == 5.0
    assert log.counts["w.raised"] == 0


def test_generator_wrapper_delegates_throw_and_close():
    log = tracing.SpanLog()
    log.sim = FakeSim
    events = []

    def guarded():
        try:
            yield "first"
        except ValueError:
            events.append("caught")
            yield "recovered"
        try:
            yield "last"
        finally:
            events.append("cleanup")

    wrapped = tracing.generator_wrapper(log, guarded, "g")
    gen = wrapped()
    assert next(gen) == "first"
    assert gen.throw(ValueError("x")) == "recovered"
    assert next(gen) == "last"
    gen.close()
    assert events == ["caught", "cleanup"]
    assert log.counts["g.calls"] == 1 and log.counts["g.raised"] == 1

    gen = wrapped()
    next(gen)
    with pytest.raises(RuntimeError, match="unhandled"):
        gen.throw(RuntimeError("unhandled"))
    assert log.counts["g.raised"] == 2


def test_generator_wrapper_can_skip_a_call():
    log = tracing.SpanLog()
    wrapped = tracing.generator_wrapper(
        log, worker, "w", start=lambda counts, steps, result="": bool(steps))
    assert list(wrapped([])) == []
    assert list(wrapped(["x"])) == ["x"]
    assert log.counts["w.calls"] == 1


def test_traced_restores_every_original():
    entry_points = tracing._entry_points()
    before = [vars(owner)[attr] for owner, attr, _factory in entry_points]
    with tracing.traced(tracing.SpanLog()):
        during = [vars(owner)[attr] for owner, attr, _factory in entry_points]
    after = [vars(owner)[attr] for owner, attr, _factory in entry_points]
    assert after == before
    assert all(a is not b for a, b in zip(during, before))


# -- workloads -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.SCENARIO_WORKLOADS)
@pytest.mark.parametrize("small", [False, True])
def test_workload_specs_are_seeded_and_valid(workload, small):
    one = workloads.scenario_spec(workload, 1, small=small)
    assert one.to_json() == workloads.scenario_spec(
        workload, 1, small=small).to_json()
    two = workloads.scenario_spec(workload, 2, small=small)
    assert two.seed == 2 and one.validate() is one and two.validate() is two

    def arrivals(spec):
        client = spec.clients[0]
        rng = random.Random(derive_seed(spec.seed, "arrivals", client.host))
        return generate_arrivals(client.arrivals, rng, spec.duration_s)

    assert arrivals(one) != arrivals(two)


def test_latex_crowd_outages_alternate():
    spec = workloads.latex_crowd(1)
    downs = [(e.at_s, e.target, e.until_s - e.at_s) for e in spec.timeline]
    assert downs[:3] == [(100.0, "server-a", 60.0), (300.0, "server-b", 60.0),
                         (500.0, "server-a", 60.0)]
    assert downs[-1][0] < spec.duration_s


def test_every_figure_has_a_golden():
    for figure in workloads.FIGURE_GOLDENS:
        assert workloads.golden_path(ROOT, figure).is_file()


# -- checks and the result line --------------------------------------------------------


def test_checks_name_what_failed():
    runs = [{"unaccounted": [], "report_sha256": "a"},
            {"unaccounted": [], "report_sha256": "b"}]
    with pytest.raises(run.CheckFailed) as failed:
        run.check_runs("metro", runs)
    assert failed.value.check == "repeats-identical"
    with pytest.raises(run.CheckFailed) as failed:
        run.check_runs("metro", [{"unaccounted": ["m0-0: ..."]}])
    assert failed.value.check == "ops-accounted"
    figures = {"fig3": {"golden_match": True}, "fig4": {"golden_match": False}}
    with pytest.raises(run.CheckFailed) as failed:
        run.check_runs("figures", [{"figures": figures}])
    assert failed.value.check == "figures-match-goldens"


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_shrunken_traced_pass_of_every_workload(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = bench("--small", "--repeats", "2", "--seed", "3", "--trace",
                 str(spans))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    expected = {f"{w}/{name}" for w in run.WORKLOADS for name in run.PER_LAYER}
    assert set(result["metrics"]) == expected
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r["run"] for r in records} == {f"{w}/seed3" for w in run.WORKLOADS}
    assert all(r["end"] >= r["start"] for r in records)


def test_untraced_result_line_holds_the_end_to_end_metrics():
    proc = bench("--workload", "figures", "--small", "--seed", "1",
                 "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 3  # fig10, three repeats
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "metro", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
