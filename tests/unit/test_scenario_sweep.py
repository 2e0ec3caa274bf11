"""Unit tests for parallel scenario sweeps (``repro scenario sweep``).

The forked leg (two CPUs byte-identical to one) lives in the
integration suite; these tests pin the seed derivation, document
shape, and canonical serialization.
"""

import json

import pytest

from repro.scenarios import (
    canned_spec,
    derive_seed,
    run_sweep,
    sweep_to_json,
    variant_seeds,
)
from repro.scenarios.sweep import SWEEP_SCHEMA


def spec():
    return canned_spec("walk-in-office")


class TestVariantSeeds:
    def test_variant_zero_is_the_spec_seed(self):
        spec = canned_spec("walk-in-office")
        assert variant_seeds(spec, 3)[0] == spec.seed

    def test_seeds_are_crc32_derived_and_stable(self):
        spec = canned_spec("walk-in-office")
        seeds = variant_seeds(spec, 4)
        expected = [derive_seed(spec.seed, "sweep", str(i))
                    for i in range(1, 4)]
        assert seeds[1:] == expected
        # Distinct — a sweep of identical seeds would measure nothing.
        assert len(set(seeds)) == 4

    def test_prefix_stability(self):
        # Asking for more variants never changes the earlier seeds.
        spec = canned_spec("walk-in-office")
        assert variant_seeds(spec, 5)[:3] == variant_seeds(spec, 3)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            variant_seeds(spec(), 0)


class TestRunSweep:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_sweep(spec(), variants=2, profile="smoke")

    def test_document_header(self, doc):
        spec = canned_spec("walk-in-office")
        assert doc["schema"] == SWEEP_SCHEMA
        assert doc["scenario"] == spec.name
        assert doc["profile"] == "smoke"
        assert doc["base_seed"] == spec.seed

    def test_variants_ordered_by_index(self, doc):
        assert [v["index"] for v in doc["variants"]] == [0, 1]
        assert [v["seed"] for v in doc["variants"]] == \
            variant_seeds(spec(), 2)

    def test_variant_zero_matches_single_run(self, doc):
        from repro.scenarios import run_scenario
        solo = run_scenario(spec(), profile="smoke")
        assert doc["variants"][0]["report"] == solo.to_dict()

    def test_summary_aggregates(self, doc):
        summary = doc["summary"]
        assert summary["variants"] == 2
        reports = [v["report"] for v in doc["variants"]]
        assert summary["ops"] == sum(r["totals"]["ops"] for r in reports)
        latency = summary["latency_mean_s"]
        assert latency["min"] <= latency["mean"] <= latency["max"]
        energy = summary["energy_j"]
        assert energy["min"] <= energy["mean"] <= energy["max"]

    def test_serialization_is_canonical(self, doc):
        text = sweep_to_json(doc)
        assert text.endswith("\n")
        assert text == sweep_to_json(json.loads(text))

    def test_rerun_is_byte_identical(self, doc):
        again = run_sweep(spec(), variants=2, profile="smoke")
        assert sweep_to_json(again) == sweep_to_json(doc)
