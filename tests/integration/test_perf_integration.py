"""Integration tests for the decision-path performance layer.

The acceptance bar, end to end:

* every canned scenario produces a **byte-identical** report with the
  search-space cache and without it — caching must be invisible at the
  system level, not just per-solve;
* reports do not depend on ``PYTHONHASHSEED`` (checked in fresh
  subprocesses with different hash seeds);
* a sweep forked over two CPUs merges to the same bytes as the
  in-process one.
"""

import os
import subprocess
import sys

import pytest

from repro.scenarios import SCENARIOS, canned_spec, run_scenario
from repro.scenarios.sweep import run_sweep, sweep_to_json
from repro.solver import SearchSpace, SpaceCache

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cached_reports_byte_identical_to_uncached(name, monkeypatch):
    spec = canned_spec(name)
    cached = run_scenario(spec, profile="smoke")

    # The uncached leg: every decision builds a fresh SearchSpace.
    monkeypatch.setattr(SpaceCache, "get",
                        lambda self, spec, servers: SearchSpace(spec, servers))
    uncached = run_scenario(spec, profile="smoke")
    assert cached.to_json() == uncached.to_json()


def _report_in_subprocess(hash_seed):
    """Run the smoke scenario in a fresh interpreter with a fixed hash seed."""
    code = (
        "from repro.scenarios import canned_spec, run_scenario\n"
        "import sys\n"
        "report = run_scenario(canned_spec('walk-in-office'),"
        " profile='smoke')\n"
        "sys.stdout.write(report.to_json())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return result.stdout


def test_report_independent_of_hash_seed():
    assert _report_in_subprocess(0) == _report_in_subprocess(1)


def test_sweep_cpu_count_does_not_change_bytes(cpus):
    spec = canned_spec("walk-in-office")
    sweeps = []
    for count in (1, 2):
        cpus(count)
        sweeps.append(sweep_to_json(run_sweep(spec, variants=3,
                                              profile="smoke")))
    assert sweeps[0] == sweeps[1]
