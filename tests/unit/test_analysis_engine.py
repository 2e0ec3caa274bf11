"""Engine mechanics: config, scoping, reporters, never-crash guarantees,
and the `repro lint` CLI surface."""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (
    INTERNAL_CODE,
    RULE_REGISTRY,
    SYNTAX_CODE,
    LintConfig,
    Rule,
    RuleConfig,
    Violation,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
    register_rule,
    render_json,
    render_text,
)
from repro.analysis.cli import main as lint_main

CLEAN = "def add(a, b):\n    return a + b\n"
DIRTY = "import time\n\ndef stamp():\n    return time.time()\n"
SRC = "src/repro/sim/fixture.py"


class TestLintConfig:
    def test_select_restricts_active_rules(self):
        config = LintConfig(select=["SPC001", "SPC004"])
        assert {r.code for r in config.active_rules()} == {"SPC001", "SPC004"}

    def test_ignore_removes_rules(self):
        config = LintConfig(ignore=["SPC005"])
        active = {r.code for r in config.active_rules()}
        assert "SPC005" not in active
        assert "SPC001" in active

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="SPC042"):
            LintConfig(select=["SPC042"]).active_rules()

    def test_unknown_ignore_code_raises(self):
        with pytest.raises(ValueError, match="SPC042"):
            LintConfig(ignore=["SPC042"]).active_rules()

    def test_rule_config_disable(self):
        config = LintConfig(rules={"SPC001": RuleConfig(enabled=False)})
        assert "SPC001" not in {r.code for r in config.active_rules()}

    def test_select_is_case_insensitive(self):
        config = LintConfig(select=["spc001"])
        assert {r.code for r in config.active_rules()} == {"SPC001"}


class TestScoping:
    def test_scope_limits_rule_to_fragment(self):
        # SPC001 is scoped to src/repro: the same source is dirty inside
        # and clean outside.
        assert analyze_source(SRC, DIRTY, LintConfig(select=["SPC001"]))
        assert not analyze_source("benchmarks/bench.py", DIRTY,
                                  LintConfig(select=["SPC001"]))

    def test_exclude_wins_over_scope(self):
        found = analyze_source("src/repro/analysis/fixture.py", DIRTY,
                               LintConfig(select=["SPC001"]))
        assert found == []

    def test_scope_override_widens_rule(self):
        config = LintConfig(
            select=["SPC001"],
            rules={"SPC001": RuleConfig(scope=(), exclude=())},
        )
        assert analyze_source("benchmarks/bench.py", DIRTY, config)

    def test_windows_style_paths_normalised(self):
        found = analyze_source("src\\repro\\sim\\fixture.py", DIRTY,
                               LintConfig(select=["SPC001"]))
        assert [v.rule for v in found] == ["SPC001"]


class TestNeverCrash:
    def test_syntax_error_becomes_spc999(self):
        found = analyze_source(SRC, "def broken(:\n", LintConfig())
        assert [v.rule for v in found] == [SYNTAX_CODE]
        assert "does not parse" in found[0].message

    def test_null_bytes_become_spc999(self):
        found = analyze_source(SRC, "x = 1\x00", LintConfig())
        assert [v.rule for v in found] == [SYNTAX_CODE]

    def test_crashing_rule_becomes_spc000(self):
        class ExplodingRule(Rule):
            code = "SPCX1"
            name = "exploding"
            description = "always crashes"

            def check(self, source, config):
                raise RuntimeError("kaboom")
                yield  # pragma: no cover

        register_rule(ExplodingRule)
        try:
            found = analyze_source(SRC, CLEAN, LintConfig(select=["SPCX1"]))
        finally:
            RULE_REGISTRY.pop("SPCX1", None)
        assert [v.rule for v in found] == [INTERNAL_CODE]
        assert "SPCX1" in found[0].message
        assert "kaboom" in found[0].message

    def test_unreadable_file_becomes_spc000(self, tmp_path):
        found = analyze_file(str(tmp_path / "ghost.py"), LintConfig())
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
        assert analyze_paths([str(tmp_path)], LintConfig()) == []

    def test_violations_sorted_by_path_then_line(self, tmp_path):
        sub = tmp_path / "src" / "repro"
        sub.mkdir(parents=True)
        (sub / "zz.py").write_text(DIRTY)
        (sub / "aa.py").write_text(DIRTY + "\nduration = elapsed_s == 0.5\n")
        found = analyze_paths([str(tmp_path)], LintConfig())
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

    def test_json_roundtrip(self):
        payload = json.loads(render_json([self._violation()],
                                         files_checked=7))
        assert payload["total"] == 1
        assert payload["files_checked"] == 7
        assert payload["counts"] == {"SPC001": 1}
        record = payload["violations"][0]
        assert record["rule"] == "SPC001"
        assert record["line"] == 3
        assert record["col"] == 4


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

    def test_unknown_rule_code_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert lint_main(["--select", "SPC042", str(tmp_path)]) == 2
        assert "SPC042" in capsys.readouterr().err

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path)]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_missing_path_is_a_finding(self, tmp_path, capsys):
        # A nonexistent explicit path is reported as SPC000, not skipped.
        assert lint_main([str(tmp_path / "nowhere.py")]) == 1
        assert INTERNAL_CODE in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert lint_main(["--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SPC001", "SPC002", "SPC004",
                     "SPC005", "SPC006", "SPC102"):
            assert code in out
        assert "spectra: noqa" in out

    def test_ignore_flag(self, tmp_path):
        target = tmp_path / "src" / "repro" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(DIRTY)
        assert lint_main(["--ignore", "SPC001", str(tmp_path)]) == 0

    def test_default_scope_skips_files_outside_src(self, tmp_path):
        (tmp_path / "tool.py").write_text(DIRTY)
        assert lint_main([str(tmp_path)]) == 0

    def test_module_entry_point(self, tmp_path):
        """`python -m repro lint` is the documented CI invocation."""
        (tmp_path / "ok.py").write_text(CLEAN)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout


class TestViolation:
    def test_render_is_one_based_column(self):
        violation = Violation(rule="SPC004", path="a.py", line=2, col=0,
                              message="float equality")
        assert violation.render() == "a.py:2:1: SPC004 float equality"

    def test_to_dict_fields(self):
        violation = Violation(rule="SPC004", path="a.py", line=2, col=3,
                              message="float equality")
        assert violation.to_dict() == {
            "rule": "SPC004", "path": "a.py", "line": 2, "col": 3,
            "message": "float equality",
        }


def test_source_file_normalises_path():
    from repro.analysis.core import SourceFile
    source = SourceFile("src\\repro\\x.py", CLEAN, ast.parse(CLEAN))
    assert source.posix_path == "src/repro/x.py"
