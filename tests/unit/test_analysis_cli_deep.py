"""CLI surface of the deep pass, the repo's one lint gate.

Exercises exactly what CI runs: ``repro lint --deep`` over a tree,
failing on whole-program and per-file findings alike, and the usage
guards that keep a typoed invocation from silently linting nothing.
"""

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

#: Trees whose only finding comes from the per-file pass: a wall-clock
#: read (SPC001) and a file that does not parse (SPC999).
PER_FILE_ONLY = [
    ("SPC001", "import time\n\ndef stamp():\n    return time.time()\n"),
    ("SPC999", "def broken(:\n"),
]


def tree_with(tmp_path, text):
    target = tmp_path / "src" / "repro" / "sim" / "fixture.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


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

    @pytest.mark.parametrize("code,text", PER_FILE_ONLY,
                             ids=[code for code, _ in PER_FILE_ONLY])
    def test_deep_fails_on_per_file_findings(self, tmp_path, capsys,
                                             code, text):
        tree_with(tmp_path, text)
        assert lint_main(["--deep", str(tmp_path)]) == 1
        assert f"1 violation ({code}×1)" in capsys.readouterr().out

    def test_list_rules_marks_deep_pack(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SPC101", "SPC102", "SPC103", "SPC104", "SPC105"):
            assert code in out
        assert "[--deep]" in out
