"""numpy and the lint engine stay off the run path.

Only a demand model with two or more varying continuous inputs solves
with ``lstsq`` (``predictors/linear.py``), and no shipped application
has one.  So importing the CLI, running a scenario and regenerating a
figure must not load numpy; a model that does take the ``lstsq`` path
must load it on demand and predict what it always did.  The probe also
imports every module of ``repro`` (``repro.__main__`` aside, which
would run the CLI), so no module may import numpy when it is itself
imported.

The sim-safety linter is a development tool beside the system
(``spclint/``, run as ``python -m spclint``): no ``repro`` module loads
it, and ``repro`` has no ``lint`` command.
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
import importlib, json, pkgutil, sys
import repro.cli

def lint_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "spclint"
                  or name.startswith("repro.analysis"))

seen = {"import": "numpy" in sys.modules}
lint_after_cli = lint_modules()
out = sys.argv[1]
codes = [
    repro.cli.main(["scenario", "run", "metro", "--profile", "smoke",
                    "--quiet", "--output", out]),
    repro.cli.main(["figures", "fig10", "--quiet", "--output", out]),
]
try:
    repro.cli.main(["lint"])
except SystemExit as exc:
    codes.append(exc.code)
seen["runs"] = "numpy" in sys.modules
imported = ["repro"]
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)
        imported.append(module.name)
seen["every_module"] = "numpy" in sys.modules
from tests.integration.test_import_footprint import two_feature_prediction
prediction = two_feature_prediction()
seen["two_features"] = "numpy" in sys.modules
print(json.dumps({"seen": seen, "codes": codes, "imported": imported,
                  "lint_after_cli": lint_after_cli,
                  "lint_after_all": lint_modules(),
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
    # `repro lint` is gone: argparse rejects the command (exit 2).
    assert probe["codes"] == [0, 0, 2]
    assert probe["seen"] == {"import": False, "runs": False,
                             "every_module": False, "two_features": True}
    assert probe["lint_after_cli"] == [] and probe["lint_after_all"] == []
    # The walk reached every module file of the package.
    package = SRC / "repro"
    expected = {
        ".".join(("repro",) + path.relative_to(package)
                 .with_suffix("").parts).removesuffix(".__init__")
        for path in package.rglob("*.py")
        if path.name != "__main__.py"
    }
    assert sorted(probe["imported"]) == sorted(expected)
    # The lazily imported solve gives this process's answer bit for bit,
    # and that answer is the plane's: y = 1 + 2a + 3b is 33 at (7, 6).
    prediction = float.fromhex(probe["prediction"])
    assert prediction == two_feature_prediction()
    assert abs(prediction - 33.0) < 1e-9

