"""CLI tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        choices = actions["command"].choices
        assert set(choices) >= {"inventory", "campaign", "tmxm",
                                "profile", "pvf", "build-db", "pipeline",
                                "stats", "schemas"}

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_opcode(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--opcode", "FROB"])


class TestCommands:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "pipeline" in out

    def test_schemas(self, capsys):
        assert main(["schemas"]) == 0
        out = capsys.readouterr().out
        for kind in ("rtl-report", "pvf-report", "syndrome-db",
                     "campaign-journal", "campaign-metrics",
                     "job-record"):
            assert kind in out

    def test_schemas_json(self, capsys):
        import json

        assert main(["schemas", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {row["kind"]: row for row in payload}
        assert entries["rtl-report"]["version"] == 1
        assert entries["rtl-report"]["fingerprint"]

    def test_campaign(self, capsys):
        assert main(["campaign", "--opcode", "IADD", "--module", "int",
                     "--faults", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "AVF" in out and "masked" in out

    def test_campaign_with_attribution(self, capsys):
        assert main(["campaign", "--opcode", "FADD", "--module",
                     "pipeline", "--faults", "60", "--attribution"]) == 0
        out = capsys.readouterr().out
        assert "Fault attribution" in out

    def test_tmxm(self, capsys):
        assert main(["tmxm", "--tile", "Zero", "--module", "pipeline",
                     "--faults", "40"]) == 0
        out = capsys.readouterr().out
        assert "t-MxM" in out and "spatial patterns" in out

    def test_profile(self, capsys):
        assert main(["profile", "--app", "Quicksort"]) == 0
        out = capsys.readouterr().out
        assert "Quicksort" in out and "Control" in out

    def test_pvf_with_checkpoint_and_resume(self, capsys, tmp_path):
        journal = tmp_path / "mxm.jsonl"
        argv = ["pvf", "--app", "MxM", "--model", "bitflip",
                "--injections", "60", "--batch-size", "20",
                "--checkpoint", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "PVF" in first and journal.exists()
        # resume replays the journal without re-running any batch
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_pvf_resume_requires_checkpoint(self):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            main(["pvf", "--app", "MxM", "--model", "bitflip",
                  "--injections", "20", "--resume"])

    def test_quiet_silences_progress(self, capsys):
        assert main(["campaign", "--opcode", "IADD", "--module", "int",
                     "--faults", "40", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "AVF" in captured.out
        assert captured.err == ""

    def test_progress_goes_to_stderr(self, capsys):
        assert main(["campaign", "--opcode", "IADD", "--module", "int",
                     "--faults", "40", "--batch-size", "20"]) == 0
        captured = capsys.readouterr()
        assert "AVF" in captured.out
        assert "[2/2]" in captured.err  # two fault batches reported

    def test_repeated_runs_log_each_line_once(self, capsys):
        argv = ["campaign", "--opcode", "IADD", "--module", "int",
                "--faults", "10"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0  # a second main() stacks no handler
        assert capsys.readouterr().err.count("[1/1] rtl-cell ") == 1

    def test_pipeline_end_to_end_and_rerun(self, capsys, tmp_path):
        workdir = tmp_path / "pipe"
        argv = ["pipeline", "--workdir", str(workdir), "--seed", "7",
                "--opcodes", "FADD", "IADD", "--grid-faults", "25",
                "--tmxm-faults", "15", "--apps", "MxM", "--model",
                "bitflip", "--injections", "30", "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "syndrome database" in first and "PVF" in first
        assert (workdir / "pipeline_summary.json").exists()
        # second invocation resumes from the finished artefacts
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestZeroInjections:
    def test_campaign_faults_zero(self, capsys):
        assert main(["campaign", "--opcode", "FADD", "--module", "fp32",
                     "--faults", "0", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "masked 0" in out and "margin n/a" in out

    def test_pvf_injections_zero(self, capsys):
        assert main(["pvf", "--app", "MxM", "--model", "bitflip",
                     "--injections", "0", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "PVF 0.000" in out


class TestStats:
    def test_stats_on_checkpointed_pvf_journal(self, capsys, tmp_path):
        journal = tmp_path / "pvf.jsonl"
        assert main(["pvf", "--app", "MxM", "--model", "bitflip",
                     "--injections", "30", "--checkpoint", str(journal),
                     "--quiet"]) == 0
        capsys.readouterr()
        # the campaign wrote pvf.metrics.json next to its journal
        assert main(["stats", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "units/s" in out and "pvf/MxM" in out

    def test_stats_on_workdir_and_no_cells(self, capsys, tmp_path):
        from repro.campaign import CampaignMetrics

        metrics = CampaignMetrics("rtl-grid")
        metrics.record_unit(0, "FADD/M/fp32 [0]", size=5)
        metrics.record_unit(1, "FADD/M/fp32 [1]", size=5)
        metrics.save(tmp_path / "rtl_grid.metrics.json")
        assert main(["stats", str(tmp_path)]) == 0
        assert "per-cell" in capsys.readouterr().out
        assert main(["stats", str(tmp_path), "--no-cells"]) == 0
        assert "per-cell" not in capsys.readouterr().out

    def test_stats_missing_target_exits_2(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert "repro stats:" in err and "nowhere" in err
        assert "hint:" in err

    def test_stats_empty_workdir_exits_2(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path)]) == 2
        assert "repro stats:" in capsys.readouterr().err

    def test_stats_json_emits_the_raw_payloads(self, capsys, tmp_path):
        import json

        from repro.campaign import CampaignMetrics

        metrics = CampaignMetrics("rtl-grid")
        metrics.record_unit(0, "FADD/M/fp32 [0]", size=5)
        metrics.save(tmp_path / "rtl_grid.metrics.json")
        assert main(["stats", str(tmp_path), "--json"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert [p["stage"] for p in payloads] == ["rtl-grid"]
        assert payloads[0]["units"][0]["index"] == 0


class TestAdaptivePVF:
    def test_target_ci_stops_early_and_reports_the_decision(
            self, capsys):
        assert main(["pvf", "--app", "MxM", "--model", "bitflip",
                     "--injections", "100", "--target-ci", "0.9",
                     "--min-per-cell", "30", "--quiet"]) == 0
        out = capsys.readouterr().out
        # default batch size 50: the warm-up horizon is one whole unit
        assert "adaptive: 50/100 injections in 1 round(s)" in out
        assert "converged" in out


class TestPatterns:
    def _rtl_report_file(self, tmp_path):
        import json

        from repro.artifacts import dump_artifact
        from repro.gpu import Opcode
        from repro.rtl import make_microbenchmark, run_campaign

        bench = make_microbenchmark(Opcode.FADD, "M", seed=3)
        report = run_campaign(bench, "fp32", 60, seed=3, batch_size=20)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(dump_artifact("rtl-report", report)))
        return path, report

    def test_patterns_mines_an_rtl_report(self, capsys, tmp_path):
        import json

        from repro.analytics import mine_patterns
        from repro.artifacts import load_artifact

        path, report = self._rtl_report_file(tmp_path)
        assert main(["patterns", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "pattern-report"
        assert load_artifact("pattern-report", payload) == \
            mine_patterns(report)

    def test_patterns_output_flag_writes_a_file(self, capsys, tmp_path):
        import json

        path, _ = self._rtl_report_file(tmp_path)
        out_path = tmp_path / "patterns.json"
        assert main(["patterns", str(path),
                     "--output", str(out_path)]) == 0
        assert "saved" in capsys.readouterr().out
        assert json.loads(
            out_path.read_text())["kind"] == "pattern-report"

    def test_patterns_rejects_a_non_report(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"hello\": 1}")
        assert main(["patterns", str(path)]) == 2
        assert "not a pvf/rtl campaign report" in \
            capsys.readouterr().err

    def test_patterns_rejects_unreadable_input(self, capsys, tmp_path):
        assert main(["patterns", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()
