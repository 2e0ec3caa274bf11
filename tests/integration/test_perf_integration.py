"""Integration tests for the decision-path performance layer.

The acceptance bar, end to end:

* every canned scenario produces a **byte-identical** report with the
  hot-path caches (the search-space cache and the demand-prediction
  memo) and without them — caching must be invisible at the system
  level, not just per-solve;
* reports do not depend on ``PYTHONHASHSEED`` (checked in fresh
  subprocesses with different hash seeds);
* a multiprocess sweep merges to the same bytes as the in-process one.
"""

import os
import subprocess
import sys

import pytest

from repro.predictors.base import OperationDemandPredictor
from repro.scenarios import SCENARIOS, canned_spec, run_scenario
from repro.scenarios.sweep import run_sweep, sweep_to_json
from repro.solver import SearchSpace, SpaceCache

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cached_reports_byte_identical_to_uncached(name, monkeypatch):
    spec = canned_spec(name)
    cached = run_scenario(spec, profile="smoke")

    # The uncached leg: every decision builds a fresh SearchSpace, and
    # every demand prediction is evaluated from the models.
    monkeypatch.setattr(SpaceCache, "get",
                        lambda self, spec, servers: SearchSpace(spec, servers))
    memoized_predict = OperationDemandPredictor.predict

    def predict_from_models(self, *args, **kwargs):
        self._predict_cache.clear()
        return memoized_predict(self, *args, **kwargs)

    monkeypatch.setattr(OperationDemandPredictor, "predict",
                        predict_from_models)
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


def test_sweep_jobs_do_not_change_bytes():
    spec = canned_spec("walk-in-office")
    serial = run_sweep(spec, variants=3, jobs=1, profile="smoke")
    fanned = run_sweep(spec, variants=3, jobs=2, profile="smoke")
    assert sweep_to_json(serial) == sweep_to_json(fanned)
