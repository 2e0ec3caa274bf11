"""Unit tests for the ``repro scenario`` command group."""

import json

from repro.cli import main

from .test_scenario_spec import CANNED, small_spec


class TestScenarioList:
    def test_lists_every_canned_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in CANNED:
            assert name in out


class TestScenarioValidate:
    def test_whole_library_by_default(self, capsys):
        assert main(["scenario", "validate"]) == 0
        out = capsys.readouterr().out
        for name in CANNED:
            assert f"{name}: ok" in out

    def test_valid_json_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(small_spec().to_json())
        assert main(["scenario", "validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_spec_exits_1_with_problems(self, tmp_path, capsys):
        data = small_spec().to_dict()
        data["clients"][0]["servers"] = ["nowhere"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["scenario", "validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err
        assert "nowhere" in err

    def test_unknown_name_exits_1(self, capsys):
        assert main(["scenario", "validate", "no-such-world"]) == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestScenarioRun:
    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "run", "no-such-world",
                     "--output", "unused"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_runs_a_json_spec_and_writes_report(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(small_spec().to_json())
        code = main(["scenario", "run", str(path),
                     "--output", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        report = json.loads(
            (tmp_path / "out" / "scenario-tiny.json").read_text())
        assert report["totals"]["completed"] == report["totals"]["ops"] >= 1

    def test_trace_streams_jsonl_and_keeps_the_report(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(small_spec().to_json())
        outputs = []
        for out, extra in (("plain", []),
                           ("traced", ["--trace", str(tmp_path / "t.jsonl")])):
            assert main(["scenario", "run", str(path),
                         "--output", str(tmp_path / out), *extra]) == 0
            stdout = capsys.readouterr().out.replace(str(tmp_path / out), "")
            report = (tmp_path / out / "scenario-tiny.json").read_text()
            outputs.append((stdout, report))
        assert outputs[0] == outputs[1]

        records = [json.loads(line) for line in
                   (tmp_path / "t.jsonl").read_text().splitlines()]
        assert records[-1]["type"] == "metrics"
        assert records[-1]["metrics"]["spectra.ops.begun"]["value"] >= 1
        names = {r["name"] for r in records[:-1]}
        assert {"begin_fidelity_op", "end_fidelity_op"} <= names
        assert main(["trace", str(tmp_path / "t.jsonl"),
                     "--output", str(tmp_path / "forensics"), "--quiet"]) == 0

    def test_trace_to_a_missing_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(small_spec().to_json())
        code = main(["scenario", "run", str(path),
                     "--output", str(tmp_path / "out"), "--quiet",
                     "--trace", str(tmp_path / "absent" / "t.jsonl")])
        assert code == 2
        assert "absent" in capsys.readouterr().err


class TestTopLevelList:
    def test_repro_list_shows_scenarios_and_chaos_profiles(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios:" in out
        for name in CANNED:
            assert name in out
        assert "chaos profiles:" in out
