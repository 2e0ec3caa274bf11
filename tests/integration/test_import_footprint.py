"""numpy stays off the run path.

Only a demand model with two or more varying continuous inputs solves
with ``lstsq`` (``predictors/linear.py``), and no shipped application
has one.  So importing the CLI, running a scenario and regenerating a
figure must not load numpy; a model that does take the ``lstsq`` path
must load it on demand and predict what it always did.  The lint rule
SPC007 keeps every module of ``src/repro`` from importing numpy when it
is itself imported.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.predictors.linear import RecencyWeightedLinearModel

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: run in a fresh interpreter; prints one JSON object of observations
PROBE = """
import json, sys
import repro.cli
seen = {"import": "numpy" in sys.modules}
out = sys.argv[1]
codes = [
    repro.cli.main(["scenario", "run", "metro", "--profile", "smoke",
                    "--quiet", "--output", out]),
    repro.cli.main(["figures", "fig10", "--quiet", "--output", out]),
]
seen["runs"] = "numpy" in sys.modules
from tests.integration.test_import_footprint import two_feature_prediction
prediction = two_feature_prediction()
seen["two_features"] = "numpy" in sys.modules
print(json.dumps({"seen": seen, "codes": codes,
                  "prediction": prediction.hex()}))
"""


def two_feature_prediction():
    """A plane fit where both features vary: the ``lstsq`` path."""
    model = RecencyWeightedLinearModel(("a", "b"))
    for a, b in [(1, 2), (2, 1), (3, 5), (4, 4), (5, 7), (6, 3)]:
        model.observe({"a": a, "b": b}, 1 + 2 * a + 3 * b)
    return model.predict({"a": 7, "b": 6})


def test_runs_leave_numpy_unloaded_until_a_two_feature_fit(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0]
    assert probe["seen"] == {"import": False, "runs": False,
                             "two_features": True}
    # The lazily imported solve gives this process's answer bit for bit,
    # and that answer is the plane's: y = 1 + 2a + 3b is 33 at (7, 6).
    prediction = float.fromhex(probe["prediction"])
    assert prediction == two_feature_prediction()
    assert abs(prediction - 33.0) < 1e-9

