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

from repro.scenarios import run_scenario

WORKLOADS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"

#: workload -> sha256 of ``run_scenario(spec).to_json()``
DIGESTS = {
    "metro": "70d3d9c0edc8943ddd2627bcaa102b53c977f15346241e015914629a26622d36",
    "latex-crowd":
        "ca9261047f290a2c04f4d326772a1a741b32b0a1435cb04f67ffcd6d45c9e1a7",
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
