"""End-to-end pipeline: streaming build, stage-boundary resume."""

import json

import pytest

from repro.campaign.pipeline import run_pipeline
from repro.errors import CampaignError
from repro.gpu import Opcode

#: Small but family-complete config: FADD covers the float datapath,
#: IADD the integer one (whose family includes the memory/control ops),
#: so the distilled database can serve every opcode the apps execute.
CONFIG = dict(
    seed=7,
    opcodes=[Opcode.FADD, Opcode.IADD],
    grid_faults=30,
    tmxm_faults=20,
    apps=["MxM"],
    injections=40,
    quiet=True,
)


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One completed pipeline run shared by the resume tests."""
    workdir = tmp_path_factory.mktemp("pipeline")
    summary = run_pipeline(workdir, **CONFIG)
    return workdir, summary


class TestEndToEnd:
    def test_produces_all_artifacts(self, finished):
        workdir, summary = finished
        for name in ("rtl_grid.jsonl", "tmxm.jsonl", "syndrome_db.json",
                     "pvf_MxM_bitflip.jsonl", "pvf_MxM_syndrome.jsonl",
                     "pipeline_summary.json"):
            assert (workdir / name).exists(), name

    def test_summary_contents(self, finished):
        workdir, summary = finished
        assert summary["seed"] == 7
        assert summary["database"]["entries"] > 0
        assert summary["database"]["tmxm_entries"] == 6
        models = {row["model"] for row in summary["pvf"]}
        assert models == {"single-bit-flip", "relative-error"}
        for row in summary["pvf"]:
            assert row["n_injections"] == 40
            assert 0.0 <= row["pvf"] <= 1.0
        on_disk = json.loads(
            (workdir / "pipeline_summary.json").read_text())
        assert on_disk == summary

    def test_rerun_replays_everything(self, finished):
        workdir, summary = finished
        again = run_pipeline(workdir, **CONFIG)
        assert again == summary

    def test_existing_database_skips_rtl_stages(self, finished):
        workdir, summary = finished
        # wreck the RTL journals: with the database present they must
        # not even be opened
        grid_text = (workdir / "rtl_grid.jsonl").read_text()
        tmxm_text = (workdir / "tmxm.jsonl").read_text()
        try:
            (workdir / "rtl_grid.jsonl").write_text("garbage\n")
            (workdir / "tmxm.jsonl").write_text("garbage\n")
            again = run_pipeline(workdir, **CONFIG)
        finally:
            (workdir / "rtl_grid.jsonl").write_text(grid_text)
            (workdir / "tmxm.jsonl").write_text(tmxm_text)
        assert again == summary


class TestStageResume:
    def test_resumes_mid_rtl_grid(self, finished, tmp_path):
        _, summary = finished
        workdir = tmp_path / "resume"
        workdir.mkdir()
        # simulate a kill during the RTL grid: a partial journal
        done_grid = finished[0] / "rtl_grid.jsonl"
        lines = done_grid.read_text().splitlines()
        assert len(lines) > 3
        (workdir / "rtl_grid.jsonl").write_text(
            "\n".join(lines[:3]) + "\n")
        resumed = run_pipeline(workdir, **CONFIG)
        assert resumed["pvf"] == summary["pvf"]
        assert resumed["database"]["entries"] == \
            summary["database"]["entries"]

    def test_resumes_after_database_stage(self, finished, tmp_path):
        _, summary = finished
        workdir = tmp_path / "post-db"
        workdir.mkdir()
        db_text = (finished[0] / "syndrome_db.json").read_text()
        (workdir / "syndrome_db.json").write_text(db_text)
        resumed = run_pipeline(workdir, **CONFIG)
        assert resumed["pvf"] == summary["pvf"]
        assert not (workdir / "rtl_grid.jsonl").exists()

    def test_fresh_discards_state(self, finished, tmp_path):
        _, summary = finished
        workdir = tmp_path / "fresh"
        workdir.mkdir()
        (workdir / "syndrome_db.json").write_text("{}")  # stale/empty
        config = dict(CONFIG, fresh=True)
        fresh = run_pipeline(workdir, **config)
        # identical up to the workdir-dependent database path
        assert fresh["pvf"] == summary["pvf"]
        assert fresh["database"]["entries"] == \
            summary["database"]["entries"]
        assert fresh["database"]["tmxm_entries"] == \
            summary["database"]["tmxm_entries"]


class TestValidation:
    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            run_pipeline(tmp_path, models=["voodoo"], quiet=True)

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            run_pipeline(tmp_path / "w", seed=1,
                         opcodes=[Opcode.FADD, Opcode.IADD],
                         grid_faults=10, tmxm_faults=10,
                         apps=["NoSuchApp"], injections=10, quiet=True)


class TestCancellation:
    def test_cancel_stops_the_rtl_grid_before_any_unit(self, tmp_path):
        from repro.errors import CampaignCancelled

        with pytest.raises(CampaignCancelled):
            run_pipeline(tmp_path, cancel=lambda: True, **CONFIG)
        journal = (tmp_path / "rtl_grid.jsonl").read_text().splitlines()
        assert [json.loads(line)["kind"] for line in journal] == ["header"]
        assert not (tmp_path / "tmxm.jsonl").exists()
        assert not (tmp_path / "syndrome_db.json").exists()


class TestTelemetryArtifacts:
    def test_per_stage_metrics_written(self, finished):
        from repro.campaign import load_metrics

        workdir, _ = finished
        for name, stage in (("rtl_grid", "rtl-grid"),
                            ("tmxm", "rtl-tmxm"),
                            ("pvf_MxM_bitflip", "pvf/MxM/bitflip"),
                            ("pvf_MxM_syndrome", "pvf/MxM/syndrome")):
            payload = load_metrics(workdir / f"{name}.metrics.json")
            assert payload["stage"] == stage
            assert payload["units_done"] > 0
            assert payload["injections"] > 0

    def test_combined_metrics_schema(self, finished):
        from repro.campaign import validate_metrics
        from repro.campaign.telemetry import PIPELINE_KIND

        workdir, _ = finished
        combined = json.loads((workdir / "metrics.json").read_text())
        assert combined["kind"] == PIPELINE_KIND
        stages = [validate_metrics(s) for s in combined["stages"]]
        assert [s["stage"] for s in stages] == [
            "rtl-grid", "rtl-tmxm", "pvf/MxM/bitflip", "pvf/MxM/syndrome"]
        # grid telemetry covers the whole instruction grid
        grid = stages[0]
        assert grid["injections"] == sum(
            u["injections"] for u in grid["units"])

    def test_rerun_keeps_rtl_stages_in_combined_metrics(self, finished):
        # DB exists -> RTL skipped, but its prior telemetry is retained
        workdir, summary = finished
        run_pipeline(workdir, **CONFIG)
        combined = json.loads((workdir / "metrics.json").read_text())
        stages = [s["stage"] for s in combined["stages"]]
        assert stages[:2] == ["rtl-grid", "rtl-tmxm"]
        # the replayed PVF stages report their units as cached
        for stage in combined["stages"][2:]:
            assert stage["units_cached"] == stage["units_done"]

    def test_stats_renders_workdir(self, finished):
        from repro.campaign import discover_metrics, render_stats

        workdir, _ = finished
        text = render_stats(discover_metrics(workdir))
        assert "rtl-grid" in text and "pvf/MxM/syndrome" in text
        assert "units/s" in text


class TestPrecisionPipeline:
    """--precision fp16 end to end: reduced-precision RTL grid,
    precision-keyed syndromes, PVF of a mixed-precision workload."""

    @pytest.fixture(scope="class")
    def fp16_run(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("pipeline-fp16")
        summary = run_pipeline(
            workdir, seed=7, opcodes=[Opcode.FADD, Opcode.IADD],
            grid_faults=20, tmxm_faults=15, apps=["Transformer"],
            models=["bitflip", "syndrome"], injections=8, quiet=True,
            precision="fp16")
        return workdir, summary

    def test_summary_records_precision(self, fp16_run):
        _, summary = fp16_run
        assert summary["config"]["precision"] == "fp16"
        assert {row["app"] for row in summary["pvf"]} == {"Transformer"}
        assert {row["model"] for row in summary["pvf"]} == {
            "single-bit-flip", "relative-error"}

    def test_database_keys_carry_precision(self, fp16_run):
        from repro.syndrome.database import SyndromeDatabase

        workdir, _ = fp16_run
        db = SyndromeDatabase.load(workdir / "syndrome_db.json")
        precisions = {e.key.precision for e in db.entries()}
        modules = {e.key.module for e in db.entries()}
        # float cells characterise the fp16 unit; integer/scheduler/
        # pipeline cells stay precision-agnostic fp32
        assert "fp16" in precisions
        assert "fp16" in modules and "fp32" not in modules
        for entry in db.entries():
            if entry.key.module == "fp16":
                assert entry.key.precision == "fp16"

    def test_saved_database_is_schema_v2(self, fp16_run):
        workdir, _ = fp16_run
        payload = json.loads((workdir / "syndrome_db.json").read_text())
        version = payload.get("version")
        if version is not None:  # enveloped dumps announce the bump
            assert version == 2

    def test_unknown_precision_fails_fast(self, tmp_path):
        with pytest.raises(CampaignError, match="precision"):
            run_pipeline(tmp_path, apps=["MxM"], precision="fp8",
                         quiet=True)

    def test_fp32_only_app_fails_before_rtl(self, tmp_path):
        with pytest.raises(ValueError, match="fp32 only"):
            run_pipeline(tmp_path, apps=["MxM"], precision="fp16",
                         quiet=True)
        assert not (tmp_path / "rtl_grid.jsonl").exists()
