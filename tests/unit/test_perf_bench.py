"""Unit tests for the perf layer: timing primitives, schema, CLI plumbing.

Timing *values* are never asserted against thresholds here — wall-clock
numbers on a shared CI box are noise — only structure, bookkeeping, and
schema enforcement.  The one exception is the oracle-scheduler check,
whose cost ratio is several times the ratchet's ceiling.
"""

import json
import pathlib

import pytest

from repro.perf.cli import ratchet_kernel
from repro.perf.schema import (
    SCHEMA,
    BenchSchemaError,
    validate_bench_doc,
    validate_bench_file,
    validate_kernel_doc,
)
from repro.perf.timing import Measurement, measure, stopwatch

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestMeasure:
    def test_counts_and_ordering(self):
        calls = []
        result = measure("m", lambda: calls.append(1), number=4, repeats=3)
        assert len(calls) == 12
        assert result.number == 4 and result.repeats == 3
        assert result.best_s <= result.mean_s <= result.worst_s

    def test_setup_runs_per_repeat_outside_timing(self):
        setups = []
        measure("m", lambda: None, number=2, repeats=5,
                setup=lambda: setups.append(1))
        assert len(setups) == 5

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            measure("m", lambda: None, number=0)
        with pytest.raises(ValueError):
            measure("m", lambda: None, repeats=0)

    def test_to_dict_keys(self):
        result = measure("m", lambda: None, number=1, repeats=1)
        assert isinstance(result, Measurement)
        assert set(result.to_dict()) == {
            "number", "repeats", "best_s", "mean_s", "worst_s",
        }

    def test_stopwatch_monotone(self):
        elapsed = stopwatch()
        first = elapsed()
        assert first >= 0.0
        assert elapsed() >= first


def measurement_dict():
    return {"number": 3, "repeats": 2, "best_s": 0.001, "mean_s": 0.002,
            "worst_s": 0.003}


def rate_measurement_dict():
    doc = measurement_dict()
    doc["events_per_s"] = 500_000.0
    return doc


def kernel_doc():
    return {
        "schema": SCHEMA,
        "suite": "kernel",
        "quick": True,
        "python": "3.11.0",
        "platform": "linux",
        "benchmarks": {
            "event_throughput": rate_measurement_dict(),
            "timer_churn": rate_measurement_dict(),
            "contended_medium": {
                **measurement_dict(),
                "jobs": 500,
                "events_per_s": 250_000.0,
                "cost_ratio": 5.0,
            },
        },
    }


class TestSchema:
    def test_valid_docs_pass(self):
        validate_kernel_doc(kernel_doc())
        assert validate_bench_doc(kernel_doc()) == "kernel"

    def test_wrong_schema_tag_fails(self):
        doc = kernel_doc()
        doc["schema"] = "spectra-bench/999"
        with pytest.raises(BenchSchemaError, match="schema"):
            validate_kernel_doc(doc)

    def test_missing_benchmark_fails(self):
        doc = kernel_doc()
        del doc["benchmarks"]["timer_churn"]
        with pytest.raises(BenchSchemaError, match="benchmarks.timer_churn"):
            validate_kernel_doc(doc)

    def test_non_numeric_timing_fails_path_qualified(self):
        doc = kernel_doc()
        doc["benchmarks"]["event_throughput"]["best_s"] = "fast"
        with pytest.raises(BenchSchemaError,
                           match=r"benchmarks.event_throughput.best_s"):
            validate_kernel_doc(doc)

    def test_nan_and_negative_rejected(self):
        doc = kernel_doc()
        doc["benchmarks"]["timer_churn"]["mean_s"] = float("nan")
        with pytest.raises(BenchSchemaError, match="finite"):
            validate_kernel_doc(doc)
        doc = kernel_doc()
        doc["benchmarks"]["timer_churn"]["mean_s"] = -1.0
        with pytest.raises(BenchSchemaError, match=">= 0"):
            validate_kernel_doc(doc)

    def test_bool_is_not_a_number(self):
        doc = kernel_doc()
        doc["benchmarks"]["contended_medium"]["cost_ratio"] = True
        with pytest.raises(BenchSchemaError, match="cost_ratio"):
            validate_kernel_doc(doc)

    def test_kernel_missing_cost_ratio_fails_path_qualified(self):
        doc = kernel_doc()
        del doc["benchmarks"]["contended_medium"]["cost_ratio"]
        with pytest.raises(BenchSchemaError,
                           match=r"benchmarks.contended_medium.cost_ratio"):
            validate_kernel_doc(doc)

    def test_kernel_missing_rate_fails_path_qualified(self):
        doc = kernel_doc()
        del doc["benchmarks"]["timer_churn"]["events_per_s"]
        with pytest.raises(BenchSchemaError,
                           match=r"benchmarks.timer_churn.events_per_s"):
            validate_kernel_doc(doc)

    def test_kernel_missing_benchmark_fails(self):
        doc = kernel_doc()
        del doc["benchmarks"]["contended_medium"]
        with pytest.raises(BenchSchemaError,
                           match="benchmarks.contended_medium"):
            validate_kernel_doc(doc)

    def test_unknown_suite_fails(self):
        # "decision" and "scenarios" were suites once; they are unknown
        # now, like any other name.
        for suite in ("mystery", "decision", "scenarios"):
            doc = kernel_doc()
            doc["suite"] = suite
            with pytest.raises(BenchSchemaError, match="unknown"):
                validate_bench_doc(doc)

    def test_every_problem_reported_not_just_first(self):
        doc = kernel_doc()
        doc["benchmarks"]["event_throughput"]["best_s"] = "fast"
        doc["benchmarks"]["timer_churn"]["mean_s"] = -1.0
        with pytest.raises(BenchSchemaError) as excinfo:
            validate_kernel_doc(doc)
        message = str(excinfo.value)
        assert "event_throughput" in message and "timer_churn" in message


class TestValidateFile:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        path.write_text(json.dumps(kernel_doc()))
        assert validate_bench_file(str(path)) == "kernel"

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="cannot read/parse"):
            validate_bench_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            validate_bench_file(str(tmp_path / "absent.json"))


class TestBenchCli:
    def test_check_flags_bad_file(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "BENCH_kernel.json"
        doc = kernel_doc()
        del doc["benchmarks"]["timer_churn"]
        bad.write_text(json.dumps(doc))
        assert main(["bench", "--check", str(bad)]) == 1
        assert "SCHEMA ERROR" in capsys.readouterr().err

    def test_check_passes_good_files(self, tmp_path, capsys):
        from repro.cli import main
        paths = []
        for name in ("a", "b"):
            good = tmp_path / f"{name}.json"
            good.write_text(json.dumps(kernel_doc()))
            paths.append(str(good))
        assert main(["bench", "--check"] + paths) == 0
        out = capsys.readouterr().out
        assert all(f"{path}: ok (kernel)" in out for path in paths)

    def test_check_accepts_kernel_doc(self, tmp_path, capsys):
        from repro.cli import main
        good = tmp_path / "BENCH_kernel.json"
        good.write_text(json.dumps(kernel_doc()))
        assert main(["bench", "--check", str(good)]) == 0
        assert "ok (kernel)" in capsys.readouterr().out


class TestKernelRatchet:
    """The regression gates `repro bench --ratchet` applies.

    All dimensionless or order-of-magnitude — a slower CI runner must
    never fail the ratchet, a scheduler regression always should.
    """

    def test_healthy_run_passes(self):
        assert ratchet_kernel(kernel_doc(), kernel_doc()) == []

    def test_cost_ratio_above_ceiling_fails(self):
        fresh = kernel_doc()
        fresh["benchmarks"]["contended_medium"]["cost_ratio"] = 200.0
        failures = ratchet_kernel(fresh, kernel_doc())
        assert any("absolute ceiling" in f for f in failures)

    def test_cost_ratio_slip_vs_committed_fails(self):
        # Under the ceiling, but more than the allowed multiple of the
        # committed ratio.
        committed = kernel_doc()
        committed["benchmarks"]["contended_medium"]["cost_ratio"] = 2.0
        fresh = kernel_doc()
        fresh["benchmarks"]["contended_medium"]["cost_ratio"] = 10.0
        failures = ratchet_kernel(fresh, committed)
        assert len(failures) == 1 and "the committed" in failures[0]

    def test_host_speed_variation_passes(self):
        # Same cost ratio, 4x slower absolute timings: a slow runner,
        # not a regression.
        fresh = kernel_doc()
        for entry in fresh["benchmarks"].values():
            entry["best_s"] *= 4.0
            entry["events_per_s"] /= 4.0
        assert ratchet_kernel(fresh, kernel_doc()) == []

    def test_rate_collapse_fails(self):
        fresh = kernel_doc()
        fresh["benchmarks"]["event_throughput"]["events_per_s"] /= 100.0
        failures = ratchet_kernel(fresh, kernel_doc())
        assert any("collapsed" in f for f in failures)

    def test_oracle_scheduler_fails(self, monkeypatch):
        # The O(n²) settle-and-rescan scheduler measured by the real
        # suite must trip the re-based gate against the committed floor.
        import repro.perf.kernel as kernel_mod
        from tests.fairshare_legacy import LegacyFairShareResource
        monkeypatch.setattr(kernel_mod, "FairShareResource",
                            LegacyFairShareResource)
        fresh = {"benchmarks": kernel_mod.run_kernel_suite(quick=True)}
        committed = json.loads((REPO_ROOT / "BENCH_kernel.json").read_text())
        failures = ratchet_kernel(fresh, committed)
        assert any("absolute ceiling" in f for f in failures)

    @pytest.fixture
    def tiny_kernel(self, monkeypatch):
        """Shrink the workloads and neutralize the cost-ratio gates.

        The CLI round trips are about plumbing, not timing fidelity (the
        gates themselves are unit-tested above), and tiny workloads have
        noisy cost ratios.
        """
        import repro.perf.cli as cli_mod
        import repro.perf.kernel as kernel_mod
        monkeypatch.setattr(kernel_mod, "DRAIN_EVENTS", 200)
        monkeypatch.setattr(kernel_mod, "CHURN_TIMERS", 200)
        monkeypatch.setattr(kernel_mod, "CONTENDED_JOBS", 40)
        monkeypatch.setattr(cli_mod, "RATCHET_MAX_COST_RATIO", float("inf"))
        monkeypatch.setattr(cli_mod, "RATCHET_COST_SLIP", float("inf"))
        monkeypatch.setattr(cli_mod, "RATCHET_RATE_SLIP", 0.0)

    def test_cli_ratchet_round_trip(self, tmp_path, tiny_kernel):
        # A real quick kernel run gated against its own output must pass.
        from repro.cli import main
        out = tmp_path / "out"
        assert main(["bench", "--quick", "--output", str(out),
                     "--quiet"]) == 0
        committed = out / "BENCH_kernel.json"
        assert validate_bench_file(str(committed)) == "kernel"
        out2 = tmp_path / "out2"
        assert main(["bench", "--quick", "--output", str(out2), "--quiet",
                     "--ratchet", str(committed)]) == 0
        assert validate_bench_file(str(out2 / "BENCH_kernel.json")) == \
            "kernel"

    def test_ratchet_reads_floor_before_output_overwrites_it(
            self, tmp_path, monkeypatch, tiny_kernel, capsys):
        # The ratchet file lives in the output directory: the run must
        # gate against the committed floor, not against its own fresh
        # output, and a failing run must leave the floor untouched.
        import repro.perf.cli as cli_mod
        from repro.cli import main
        monkeypatch.setattr(cli_mod, "RATCHET_COST_SLIP", 3.0)
        committed = kernel_doc()
        committed["benchmarks"]["contended_medium"]["cost_ratio"] = 1e-6
        floor = tmp_path / "BENCH_kernel.json"
        floor.write_text(json.dumps(committed, indent=2))
        before = floor.read_bytes()
        assert main(["bench", "--quick", "--output", str(tmp_path),
                     "--quiet", "--ratchet", str(floor)]) == 1
        assert "the committed" in capsys.readouterr().err
        assert floor.read_bytes() == before

    def test_ratchet_rejects_a_non_kernel_document(self, tmp_path, capsys):
        from repro.cli import main
        doc = kernel_doc()
        doc["suite"] = "decision"
        other = tmp_path / "BENCH_decision.json"
        other.write_text(json.dumps(doc))
        assert main(["bench", "--quick", "--output", str(tmp_path / "out"),
                     "--quiet", "--ratchet", str(other)]) == 1
        assert f"ratchet: cannot use {other}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
