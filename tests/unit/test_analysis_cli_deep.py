"""CLI surface of the whole-program pack, part of the repo's one gate.

Exercises what CI runs: ``python -m spclint`` over a tree, failing on
whole-program and per-file findings alike.
"""

import pytest

from spclint.cli import main as lint_main

#: A span leaking over the exception edge of its yield — SPC102's
#: canonical finding, invisible to a lexical begin/end check.
LEAKY = (
    "def leaky(tracer, network):\n"
    "    span = tracer.start_span('op')\n"
    "    yield from network.transfer(1)\n"
    "    span.end()\n"
)

#: Trees whose only finding comes from a per-file check: a wall-clock
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
    """Every sweep is whole-program: there is no flag to ask for it."""

    def test_deep_pass_finds_it(self, tmp_path, capsys):
        tree_with(tmp_path, LEAKY)
        assert lint_main([str(tmp_path)]) == 1
        assert "SPC102" in capsys.readouterr().out

    @pytest.mark.parametrize("code,text", PER_FILE_ONLY,
                             ids=[code for code, _ in PER_FILE_ONLY])
    def test_deep_fails_on_per_file_findings(self, tmp_path, capsys,
                                             code, text):
        tree_with(tmp_path, text)
        assert lint_main([str(tmp_path)]) == 1
        assert f"1 violation ({code}×1)" in capsys.readouterr().out
