"""The kernel ratchet (``benchmarks/kernel.py``) and its oracle check.

Timing *values* are never asserted against thresholds here: wall-clock
numbers on a shared CI box are noise.  The gates are tested on
hand-built documents.  The one exception is the oracle-scheduler check,
whose cost ratio is several times the ratchet's ceiling.
"""

import json

import pytest

from benchmarks import kernel
from repro.scenarios import run_scenario


def measurement_dict():
    return {"number": 3, "repeats": 2, "best_s": 0.001, "mean_s": 0.002,
            "worst_s": 0.003, "events_per_s": 500_000.0}


def kernel_doc():
    return {
        "suite": "kernel",
        "python": "3.11.0",
        "platform": "linux",
        "benchmarks": {
            "event_throughput": measurement_dict(),
            "timer_churn": measurement_dict(),
            "contended_medium": {
                **measurement_dict(),
                "jobs": 500,
                "events_per_s": 250_000.0,
                "cost_ratio": 5.0,
            },
            "null_op": {
                **measurement_dict(),
                "ops": 200,
                "events_per_s": 3_000.0,
                "cost_ratio": 150.0,
            },
        },
    }


class TestRatchet:
    """All gates are dimensionless or order-of-magnitude: a slower CI
    runner must never fail the ratchet, a scheduler regression always
    should."""

    def test_healthy_run_passes(self):
        assert kernel.ratchet(kernel_doc(), kernel_doc()) == []

    def test_committed_floor_passes_against_itself(self):
        committed = json.loads(kernel.COMMITTED.read_text())
        assert kernel.ratchet(committed, committed) == []

    def test_cost_ratio_above_ceiling_fails(self):
        fresh = kernel_doc()
        fresh["benchmarks"]["contended_medium"]["cost_ratio"] = 200.0
        failures = kernel.ratchet(fresh, kernel_doc())
        assert any("absolute ceiling" in f for f in failures)

    def test_cost_ratio_slip_vs_committed_fails(self):
        # Under the ceiling, but more than the allowed multiple of the
        # committed ratio.
        committed = kernel_doc()
        committed["benchmarks"]["contended_medium"]["cost_ratio"] = 2.0
        fresh = kernel_doc()
        fresh["benchmarks"]["contended_medium"]["cost_ratio"] = 10.0
        failures = kernel.ratchet(fresh, committed)
        assert len(failures) == 1 and "the committed" in failures[0]

    def test_null_op_cost_ratio_slip_vs_committed_fails(self):
        # A null operation costing four times the kernel events it did.
        fresh = kernel_doc()
        fresh["benchmarks"]["null_op"]["cost_ratio"] = 600.0
        failures = kernel.ratchet(fresh, kernel_doc())
        assert failures == ["null_op cost ratio 600.00 above 3.0x the "
                            "committed 150.00"]

    def test_host_speed_variation_passes(self):
        # Same cost ratio, 4x slower absolute timings: a slow runner,
        # not a regression.
        fresh = kernel_doc()
        for entry in fresh["benchmarks"].values():
            entry["best_s"] *= 4.0
            entry["events_per_s"] /= 4.0
        assert kernel.ratchet(fresh, kernel_doc()) == []

    def test_rate_collapse_fails(self):
        fresh = kernel_doc()
        fresh["benchmarks"]["event_throughput"]["events_per_s"] /= 100.0
        failures = kernel.ratchet(fresh, kernel_doc())
        assert any("collapsed" in f for f in failures)

    @pytest.mark.parametrize("side", ["fresh", "committed"])
    @pytest.mark.parametrize("name,key", [
        ("contended_medium", "cost_ratio"),
        ("null_op", "cost_ratio"),
        ("timer_churn", "events_per_s"),
    ])
    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), "fast", "missing",
    ])
    def test_unusable_figure_fails(self, side, name, key, bad):
        # NaN compares false with everything, so a bare comparison
        # would wave it through every gate.
        docs = {"fresh": kernel_doc(), "committed": kernel_doc()}
        entry = docs[side]["benchmarks"][name]
        if bad == "missing":
            del entry[key]
        else:
            entry[key] = bad
        failures = kernel.ratchet(docs["fresh"], docs["committed"])
        assert failures == [f"{side} benchmarks.{name}.{key} is missing "
                            f"or not a finite number"]

    @pytest.mark.parametrize("committed", [None, {}, {"benchmarks": []}])
    def test_unreadable_floor_fails(self, committed):
        # Two cost ratios and four rates, each missing.
        assert len(kernel.ratchet(kernel_doc(), committed)) == 6

    def test_null_op_spec_runs_every_operation(self):
        report = run_scenario(kernel.null_op_spec())
        assert len(report.ops) == kernel.NULL_OP_CLIENTS * kernel.NULL_OP_OPS
        assert report.completed

    def test_oracle_scheduler_fails(self, monkeypatch):
        # The O(n²) settle-and-rescan scheduler, timed by the real
        # suite, must trip the ceiling against the committed floor.
        # Only the two benchmarks the cost ratio divides are timed, best
        # of two: the legacy storm is slow, and its ratio is far past
        # the ceiling either way.
        from tests.fairshare_legacy import LegacyFairShareResource
        monkeypatch.setattr(kernel, "FairShareResource",
                            LegacyFairShareResource)
        monkeypatch.setattr(kernel, "REPEATS", 2)
        committed = json.loads(kernel.COMMITTED.read_text())
        throughput = kernel.bench_event_throughput()
        fresh = {"benchmarks": {
            **committed["benchmarks"],
            "event_throughput": throughput,
            "contended_medium": kernel.bench_contended_medium(throughput),
        }}
        failures = kernel.ratchet(fresh, committed)
        assert any("absolute ceiling" in f for f in failures)
