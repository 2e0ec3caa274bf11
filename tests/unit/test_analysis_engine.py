"""Engine mechanics: rule selection, scoping, the text report,
never-crash guarantees, and the ``python -m spclint`` CLI surface."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from spclint import (
    INTERNAL_CODE,
    RULE_REGISTRY,
    SYNTAX_CODE,
    Rule,
    Violation,
    analyze_paths,
    analyze_source,
    iter_python_files,
    register_rule,
)
from spclint.cli import main as lint_main
from spclint.cli import render_text

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CLEAN = "def add(a, b):\n    return a + b\n"
DIRTY = "import time\n\ndef stamp():\n    return time.time()\n"
#: DIRTY plus an exact float comparison: one SPC001 and one SPC004.
TWO_RULES = DIRTY + "\nduration = elapsed_s == 0.5\n"
SRC = "src/repro/sim/fixture.py"


def rules_found(text, select):
    return sorted({v.rule for v in analyze_source(SRC, text, select=select)})


class TestLintConfig:
    """The ``select`` seam: which rules a test's sweep runs."""

    def test_select_restricts_active_rules(self):
        assert rules_found(TWO_RULES, None) == ["SPC001", "SPC004"]
        assert rules_found(TWO_RULES, ["SPC004"]) == ["SPC004"]

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="SPC042"):
            analyze_source(SRC, CLEAN, select=["SPC042"])
        with pytest.raises(ValueError, match="SPC042"):
            analyze_paths([SRC], select=["SPC042"])

    def test_select_is_case_insensitive(self):
        assert rules_found(TWO_RULES, ["spc001"]) == ["SPC001"]


class TestScoping:
    def test_scope_limits_rule_to_fragment(self):
        # SPC001 is scoped to src/repro: the same source is dirty inside
        # and clean outside.
        assert analyze_source(SRC, DIRTY, select=["SPC001"])
        assert not analyze_source("benchmarks/bench.py", DIRTY,
                                  select=["SPC001"])

    def test_windows_style_paths_normalised(self):
        found = analyze_source("src\\repro\\sim\\fixture.py", DIRTY,
                               select=["SPC001"])
        assert [v.rule for v in found] == ["SPC001"]


class TestNeverCrash:
    def test_syntax_error_becomes_spc999(self):
        found = analyze_source(SRC, "def broken(:\n")
        assert [v.rule for v in found] == [SYNTAX_CODE]
        assert "does not parse" in found[0].message

    def test_null_bytes_become_spc999(self):
        found = analyze_source(SRC, "x = 1\x00")
        assert [v.rule for v in found] == [SYNTAX_CODE]

    def test_crashing_rule_becomes_spc000(self):
        class ExplodingRule(Rule):
            code = "SPCX1"
            name = "exploding"
            description = "always crashes"

            def check(self, source):
                raise RuntimeError("kaboom")
                yield  # pragma: no cover

        register_rule(ExplodingRule)
        try:
            found = analyze_source(SRC, CLEAN, select=["SPCX1"])
        finally:
            RULE_REGISTRY.pop("SPCX1", None)
        assert [v.rule for v in found] == [INTERNAL_CODE]
        assert "SPCX1" in found[0].message
        assert "kaboom" in found[0].message

    def test_unreadable_file_becomes_spc000(self, tmp_path):
        found = analyze_paths([str(tmp_path / "ghost.py")])
        assert [v.rule for v in found] == [INTERNAL_CODE]
        assert "cannot read" in found[0].message

    def test_reserved_codes_cannot_be_registered(self):
        class Imposter(Rule):
            code = INTERNAL_CODE

        with pytest.raises(ValueError):
            register_rule(Imposter)

    def test_duplicate_codes_cannot_be_registered(self):
        class Clone(Rule):
            code = "SPC001"

        with pytest.raises(ValueError):
            register_rule(Clone)


class TestFileDiscovery:
    def test_walk_skips_caches_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text(CLEAN)
        (tmp_path / "a.py").write_text(CLEAN)
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text(CLEAN)
        (tmp_path / "notes.txt").write_text("not python")
        files = list(iter_python_files([str(tmp_path)]))
        assert [os.path.basename(f) for f in files] == ["a.py", "b.py"]

    def test_explicit_file_and_dedup(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text(CLEAN)
        files = list(iter_python_files([str(target), str(tmp_path)]))
        assert files == [str(target)]

    def test_analyze_paths_clean_tree(self, tmp_path):
        (tmp_path / "a.py").write_text(CLEAN)
        (tmp_path / "b.py").write_text(CLEAN)
        assert analyze_paths([str(tmp_path)]) == []

    def test_violations_sorted_by_path_then_line(self, tmp_path):
        sub = tmp_path / "src" / "repro"
        sub.mkdir(parents=True)
        (sub / "zz.py").write_text(DIRTY)
        (sub / "aa.py").write_text(TWO_RULES)
        found = analyze_paths([str(tmp_path)])
        paths = [v.path for v in found]
        assert paths == sorted(paths)
        per_file_lines = {}
        for v in found:
            per_file_lines.setdefault(v.path, []).append(v.line)
        for lines in per_file_lines.values():
            assert lines == sorted(lines)


class TestReporters:
    def _violation(self):
        return Violation(rule="SPC001", path="src/repro/x.py", line=3,
                         col=4, message="wall-clock call time.time()")

    def test_text_lists_findings_with_counts(self):
        text = render_text([self._violation()], files_checked=7)
        assert "src/repro/x.py:3:5: SPC001" in text
        assert "1 violation (" in text
        assert "SPC001×1" in text.splitlines()[-1]

    def test_text_clean_summary(self):
        text = render_text([], files_checked=7)
        assert "clean across 7 files" in text


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(DIRTY)
        assert lint_main([str(tmp_path)]) == 1
        assert "SPC001" in capsys.readouterr().out

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path)]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_missing_path_is_a_finding(self, tmp_path, capsys):
        # A nonexistent explicit path is reported as SPC000, not skipped.
        assert lint_main([str(tmp_path / "nowhere.py")]) == 1
        assert INTERNAL_CODE in capsys.readouterr().out

    def test_default_scope_skips_files_outside_src(self, tmp_path):
        (tmp_path / "tool.py").write_text(DIRTY)
        assert lint_main([str(tmp_path)]) == 0

    @pytest.mark.parametrize("option", ["--deep", "--select=SPC001",
                                        "--ignore=SPC001", "--format=json",
                                        "--list-rules"])
    def test_options_are_usage_errors(self, tmp_path, capsys, option):
        """Positional paths are the CLI's only input."""
        (tmp_path / "ok.py").write_text(CLEAN)
        with pytest.raises(SystemExit) as exit_info:
            lint_main([option, str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        """`python -m spclint` is the documented CI invocation."""
        (tmp_path / "ok.py").write_text(CLEAN)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT))
        result = subprocess.run(
            [sys.executable, "-m", "spclint", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout


class TestViolation:
    def test_render_is_one_based_column(self):
        violation = Violation(rule="SPC004", path="a.py", line=2, col=0,
                              message="float equality")
        assert violation.render() == "a.py:2:1: SPC004 float equality"


def test_source_file_normalises_path():
    from spclint.core import SourceFile
    source = SourceFile("src\\repro\\x.py", CLEAN, ast.parse(CLEAN))
    assert source.posix_path == "src/repro/x.py"
