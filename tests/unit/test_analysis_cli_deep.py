"""CLI surface of the deep pass and the baseline ratchet.

Exercises exactly what CI runs: ``repro lint --deep`` over a tree,
``--baseline write`` / ``--baseline check`` as the ratchet, SARIF as
the code-scanning artifact, and the usage guards that keep a typoed
invocation from silently linting nothing.
"""

import json

import pytest

from repro.analysis.cli import main as lint_main

#: A span leaking over the exception edge of its yield — SPC102's
#: canonical finding, invisible to a lexical begin/end check.
LEAKY = (
    "def leaky(tracer, network):\n"
    "    span = tracer.start_span('op')\n"
    "    yield from network.transfer(1)\n"
    "    span.end()\n"
)

FIXED = (
    "def leaky(tracer, network):\n"
    "    with tracer.start_span('op'):\n"
    "        yield from network.transfer(1)\n"
)

CLEAN = "def add(a, b):\n    return a + b\n"


def tree_with(tmp_path, text):
    target = tmp_path / "src" / "repro" / "sim" / "fixture.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


class TestDeepFlag:
    def test_shallow_pass_misses_the_path_leak(self, tmp_path):
        tree_with(tmp_path, LEAKY)
        assert lint_main([str(tmp_path)]) == 0

    def test_deep_pass_finds_it(self, tmp_path, capsys):
        tree_with(tmp_path, LEAKY)
        assert lint_main(["--deep", str(tmp_path)]) == 1
        assert "SPC102" in capsys.readouterr().out

    def test_select_spc1xx_without_deep_is_a_usage_error(self,
                                                         tmp_path, capsys):
        tree_with(tmp_path, LEAKY)
        assert lint_main(["--select", "SPC102", str(tmp_path)]) == 2
        assert "add --deep" in capsys.readouterr().err

    def test_select_spc1xx_with_deep_runs(self, tmp_path):
        tree_with(tmp_path, LEAKY)
        assert lint_main(["--select", "SPC102", "--deep",
                          str(tmp_path)]) == 1

    def test_list_rules_marks_deep_pack(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SPC101", "SPC102", "SPC103", "SPC104", "SPC105"):
            assert code in out
        assert "[--deep]" in out


class TestBaselineRatchet:
    def baseline_args(self, tmp_path, mode):
        return ["--deep", "--baseline", mode,
                "--baseline-file", str(tmp_path / "baseline.json"),
                str(tmp_path)]

    def test_write_then_check_is_green(self, tmp_path, capsys):
        tree_with(tmp_path, LEAKY)
        assert lint_main(self.baseline_args(tmp_path, "write")) == 0
        assert "1 grandfathered finding" in capsys.readouterr().out
        assert lint_main(self.baseline_args(tmp_path, "check")) == 0
        err = capsys.readouterr().err
        assert "1 grandfathered finding" in err

    def test_new_finding_fails_the_check(self, tmp_path, capsys):
        target = tree_with(tmp_path, LEAKY)
        assert lint_main(self.baseline_args(tmp_path, "write")) == 0
        capsys.readouterr()
        # A second, new leak appears: only it fails the gate.
        target.write_text(LEAKY + "\n\n" + LEAKY.replace("leaky", "worse"))
        assert lint_main(self.baseline_args(tmp_path, "check")) == 1
        out = capsys.readouterr().out
        assert "worse" in out and "SPC102" in out

    def test_fixing_the_finding_reports_stale(self, tmp_path, capsys):
        target = tree_with(tmp_path, LEAKY)
        assert lint_main(self.baseline_args(tmp_path, "write")) == 0
        capsys.readouterr()
        target.write_text(FIXED)
        assert lint_main(self.baseline_args(tmp_path, "check")) == 0
        assert "stale baseline" in capsys.readouterr().err

    def test_check_without_baseline_is_a_usage_error(self, tmp_path,
                                                     capsys):
        tree_with(tmp_path, CLEAN)
        assert lint_main(self.baseline_args(tmp_path, "check")) == 2
        assert "baseline write" in capsys.readouterr().err


class TestSarifOutput:
    def test_deep_findings_render_as_sarif(self, tmp_path, capsys):
        tree_with(tmp_path, LEAKY)
        assert lint_main(["--deep", "--format", "sarif",
                          str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "spectra-lint"
        assert any(r["ruleId"] == "SPC102" for r in run["results"])

    def test_clean_tree_renders_empty_sarif(self, tmp_path, capsys):
        tree_with(tmp_path, CLEAN)
        assert lint_main(["--deep", "--format", "sarif",
                          str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []
